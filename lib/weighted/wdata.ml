(* The support in first-emission order: record [i] is [Intern.value keys i],
   its grid weight [ws.(i)], for [i < len] ([ws] may run longer).  A
   dataset never adds to [keys], but may share them: with another dataset
   that keeps every record, or with an engine operator that adopted the
   dataset and appends ids past [len].  So only ids below [len] are the
   support.  Constructors drop zero weights, so the support never holds
   them. *)
type 'a t = { keys : 'a Intern.t; ws : int array; len : int }

let support_size a = a.len
let empty () = { keys = Intern.create (); ws = [||]; len = 0 }

(* The records of each [(keys, ws, n)] part whose id is below [n] and
   whose weight in [ws] is nonzero, in order, with those weights.  Copies
   records and their stored hashes, and hashes nothing; a single part kept
   whole shares its keys, unless its weights run over twice its length. *)
let gather parts =
  let whole ws n =
    let rec go i = i = n || (ws.(i) <> 0 && go (i + 1)) in
    2 * n >= Array.length ws && go 0
  in
  match parts with
  | [ (keys, ws, n) ] when whole ws n -> { keys; ws; len = n }
  | _ ->
      let kept (keys, ws, n) = (keys, fun i -> i < n && ws.(i) <> 0) in
      let keys = Intern.gather (List.map kept parts) in
      let len = Intern.size keys in
      let ws' = Array.make len 0 and j = ref 0 in
      List.iter
        (fun (_, ws, n) ->
          for i = 0 to n - 1 do
            if ws.(i) <> 0 then begin
              ws'.(!j) <- ws.(i);
              incr j
            end
          done)
        parts;
      { keys; ws = ws'; len }

let keys a = a.keys
let of_index keys ws = gather [ (keys, ws, Intern.size keys) ]

(* One hash and one probe per emission; integer sums are exact, so a
   record's weight is the sum of its emissions in any order.  Zeros are
   dropped at the end, so a record that nets to zero mid-way and is
   emitted again keeps its first-emission place, which the engine's
   first-sight order follows ([to_grid_list]). *)
let build size produce =
  let keys = Intern.create ~size () and ws = ref (Array.make size 0) in
  produce (fun x w ->
      let n = Intern.size keys in
      let p = Intern.intern keys x in
      if p < n then !ws.(p) <- Grid.add !ws.(p) w
      else begin
        ws := Room.grow !ws (p + 1) 0;
        !ws.(p) <- w
      end);
  gather [ (keys, !ws, Intern.size keys) ]

let of_list assoc =
  build (List.length assoc) (fun emit -> List.iter (fun (x, w) -> emit x (Grid.of_float w)) assoc)

let of_records xs =
  let one = Grid.of_float 1.0 in
  build (List.length xs) (fun emit -> List.iter (fun x -> emit x one) xs)

let singleton x w = of_list [ (x, w) ]

let iter_grid f a =
  for i = 0 to support_size a - 1 do
    f (Intern.value a.keys i) a.ws.(i)
  done

let update a delta =
  build (support_size a) (fun emit ->
      iter_grid emit a;
      List.iter (fun (x, w) -> emit x (Grid.of_float w)) delta)

let add a x w = update a [ (x, w) ]

let to_list_with f a =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((Intern.value a.keys i, f a.ws.(i)) :: acc)
  in
  go (support_size a - 1) []

let to_grid_list a = to_list_with Fun.id a
let to_list a = to_list_with Grid.to_float a
let to_sorted_list a = List.sort (fun (x, _) (y, _) -> compare x y) (to_list a)

(* The weight at [p] of [a], [0] when [p] is [-1]. *)
let at a p = if p < 0 then 0 else a.ws.(p)

(* The position in [a] of an id of [a.keys], or [-1]. *)
let within a p = if p < a.len then p else -1
let find a x = within a (Intern.find a.keys x)

(* The position in [b] of [a]'s [i]-th record, probing with its stored
   hash. *)
let lookup a b i = within b (Intern.find_hashed b.keys (Intern.value a.keys i) (Intern.hash_of a.keys i))

(* [m.(i)] is the position in [b] of [a]'s [i]-th record, or [-1]: one
   probe per record of the smaller side, into the larger side's index. *)
let matches a b =
  let na = support_size a and nb = support_size b in
  if na <= nb then Array.init na (fun i -> lookup a b i)
  else begin
    let m = Array.make na (-1) in
    for j = 0 to nb - 1 do
      let i = lookup b a j in
      if i >= 0 then m.(i) <- j
    done;
    m
  end

(* [f] of each record of [a] and its weight in [b], with [g] of each
   record of [b] that [a] lacks. *)
let pair_up f g a b =
  let m = matches a b and hit = Bytes.make (support_size b) '\000' in
  let wa =
    Array.init (support_size a) (fun i ->
        let p = m.(i) in
        if p >= 0 then Bytes.set hit p '\001';
        f a.ws.(i) (at b p))
  in
  let missed j = if Bytes.get hit j = '\000' then g b.ws.(j) else 0 in
  let wb = Array.init (support_size b) missed in
  (wa, wb)

let weight_grid a x = at a (find a x)
let weight a x = Grid.to_float (weight_grid a x)
let mem a x = find a x >= 0

(* Exact, order-free sums, rounded to a float once. *)
let wide_sum f a =
  let s = Grid.Wide.create () in
  for i = 0 to support_size a - 1 do
    Grid.Wide.add s (f a.ws.(i))
  done;
  Grid.Wide.to_float s

let norm a = wide_sum abs a
let total a = wide_sum Fun.id a

let dist a b =
  let wa, wb = pair_up (fun wa wb -> abs (Grid.sub wa wb)) abs a b in
  let s = Grid.Wide.create () in
  Array.iter (Grid.Wide.add s) wa;
  Array.iter (Grid.Wide.add s) wb;
  Grid.Wide.to_float s

let map_grid f a = gather [ (a.keys, Array.init a.len (fun i -> f (Intern.value a.keys i) a.ws.(i)), a.len) ]

let map_weights f a = map_grid (fun x w -> Grid.of_float (f x (Grid.to_float w))) a
let scale c a = map_weights (fun _ w -> c *. w) a

let filter p a =
  let keep x w = if p x (Grid.to_float w) then w else 0 in
  map_grid keep a

let merge_grid f a b =
  let wa, wb = pair_up f (f 0) a b in
  gather [ (a.keys, wa, a.len); (b.keys, wb, b.len) ]

let merge f a b = merge_grid (fun wa wb -> Grid.of_float (f (Grid.to_float wa) (Grid.to_float wb))) a b

let fold f a init =
  let acc = ref init in
  iter_grid (fun x w -> acc := f x (Grid.to_float w) !acc) a;
  !acc

let iter f a = iter_grid (fun x w -> f x (Grid.to_float w)) a
let equal ?(tol = 1e-9) a b = dist a b <= tol

let pp pp_record fmt a =
  let item fmt (x, w) = Format.fprintf fmt "(%a, %g)" pp_record x w in
  let sep fmt () = Format.fprintf fmt ";@ " in
  Format.fprintf fmt "@[<hov 1>{%a}@]" (Format.pp_print_list ~pp_sep:sep item) (to_sorted_list a)
