(* Measurement plumbing for the release benchmark: the clock, spans kept in
   memory, order statistics, process memory, directory sizes, and a JSON
   value with one printer.  Nothing here touches the system under test. *)

let now = Unix.gettimeofday

(* ---- JSON ------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Floats keep every digit (%.17g round-trips); non-finite values have no
   JSON spelling and become null. *)
let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f when Float.is_finite f ->
      let s = Printf.sprintf "%.17g" f in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Float _ -> "null"
  | String s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kv)
      ^ "}"

(* ---- Order statistics ------------------------------------------------ *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.0

(* ---- Spans ------------------------------------------------------------ *)

type span = { name : string; start : float; stop : float; parent : string option }

let spans : span list ref = ref []

(* [span ?parent name f] runs [f] and records its interval; the duration is
   returned alongside the result so callers need not look it up. *)
let span ?parent name f =
  let start = now () in
  let r = f () in
  let stop = now () in
  spans := { name; start; stop; parent } :: !spans;
  (r, stop -. start)

let spans_json () =
  List (List.rev_map
          (fun s ->
            Obj
              [
                ("name", String s.name);
                ("start", Float s.start);
                ("end", Float s.stop);
                ("parent", match s.parent with Some p -> String p | None -> Null);
              ])
          !spans)

(* ---- Process memory and files ----------------------------------------- *)

(* [status_kb field] reads one "Field:   N kB" line of /proc/self/status. *)
let status_kb field =
  let prefix = field ^ ":" in
  let pl = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line when String.length line > pl && String.sub line 0 pl = prefix ->
                Scanf.sscanf (String.sub line pl (String.length line - pl)) " %d" Fun.id
            | _ -> scan ()
          in
          scan ())

let peak_rss_mb () = float_of_int (status_kb "VmHWM") /. 1024.0
let rss_mb () = float_of_int (status_kb "VmRSS") /. 1024.0

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec make_dirs path =
  if not (Sys.file_exists path) then begin
    make_dirs (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  remove_tree path;
  make_dirs path

