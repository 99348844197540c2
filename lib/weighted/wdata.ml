type 'a t = ('a, float) Hashtbl.t
(* A hashtable, never mutated after construction (every operation copies);
   constructors drop ~zero weights, so the support never holds them. *)

let epsilon_weight = 1e-12

let is_zero w = Float.abs w < epsilon_weight

let empty () = Hashtbl.create 1

(* Canonical accumulation: float addition is not associative, so each
   record's emissions are summed in ascending weight order (a partial sum
   at ~zero restarting from the next weight), making its weight a function
   of their *multiset*, and plan rewrites keep released bits.  Only records
   emitted more than once sort: the first weight waits in [first], all of
   them in [more]. *)
let build size produce =
  let first = Hashtbl.create (max 8 size) and more = Hashtbl.create 8 in
  produce (fun x w ->
      match Hashtbl.find_opt first x with
      | None -> Hashtbl.add first x w
      | Some w0 -> (
          match Hashtbl.find_opt more x with
          | Some ws -> ws := w :: !ws
          | None -> Hashtbl.add more x (ref [ w; w0 ])));
  let sum s w = if is_zero (s +. w) then 0.0 else s +. w in
  let rec ascending = function
    | a :: (b :: _ as rest) -> Float.compare a b <= 0 && ascending rest
    | _ -> true
  in
  let sum_sorted ws =
    if ascending ws then List.fold_left sum 0.0 ws
    else
      let a = Array.of_list ws in
      Array.stable_sort Float.compare a;
      Array.fold_left sum 0.0 a
  in
  Hashtbl.iter (fun x ws -> Hashtbl.replace first x (sum_sorted !ws)) more;
  Hashtbl.filter_map_inplace (fun _ w -> if is_zero w then None else Some w) first;
  first

let of_list assoc = build (List.length assoc) (fun emit -> List.iter (fun (x, w) -> emit x w) assoc)
let of_records xs = build (List.length xs) (fun emit -> List.iter (fun x -> emit x 1.0) xs)
let singleton x w = of_list [ (x, w) ]

let update a delta =
  build (Hashtbl.length a) (fun emit ->
      Hashtbl.iter emit a;
      List.iter (fun (x, w) -> emit x w) delta)

let add a x w = update a [ (x, w) ]

let to_list h = Hashtbl.fold (fun x w acc -> (x, w) :: acc) h []

let to_sorted_list h = List.sort (fun (x, _) (y, _) -> compare x y) (to_list h)

let weight h x = match Hashtbl.find_opt h x with Some w -> w | None -> 0.0
let mem h x = Hashtbl.mem h x
let support_size = Hashtbl.length
let norm h = Hashtbl.fold (fun _ w acc -> acc +. Float.abs w) h 0.0
let total h = Hashtbl.fold (fun _ w acc -> acc +. w) h 0.0

let dist a b =
  let d = Hashtbl.fold (fun x wa acc -> acc +. Float.abs (wa -. weight b x)) a 0.0 in
  Hashtbl.fold (fun x wb acc -> if Hashtbl.mem a x then acc else acc +. Float.abs wb) b d

(* One value per record: copy the table (hashing nothing) and rewrite it. *)
let map_weights f a =
  let h = Hashtbl.copy a in
  Hashtbl.filter_map_inplace
    (fun x w ->
      let w' = f x w in
      if is_zero w' then None else Some w')
    h;
  h

let scale c a = map_weights (fun _ w -> c *. w) a

let filter p a =
  let h = Hashtbl.create (max 8 (Hashtbl.length a)) in
  Hashtbl.iter (fun x w -> if p x w then Hashtbl.add h x w) a;
  h

let merge f a b =
  let h = map_weights (fun x wa -> f wa (weight b x)) a in
  Hashtbl.iter
    (fun x wb ->
      if not (Hashtbl.mem a x) then
        let w = f 0.0 wb in
        if not (is_zero w) then Hashtbl.add h x w)
    b;
  h

let fold f a init = Hashtbl.fold f a init
let iter f a = Hashtbl.iter f a

let equal ?(tol = 1e-9) a b = dist a b <= tol

let pp pp_record fmt a =
  let item fmt (x, w) = Format.fprintf fmt "(%a, %g)" pp_record x w in
  let sep fmt () = Format.fprintf fmt ";@ " in
  Format.fprintf fmt "@[<hov 1>{%a}@]" (Format.pp_print_list ~pp_sep:sep item) (to_sorted_list a)
