type 'a t = ('a, int) Hashtbl.t
(* A hashtable of {!Grid} weights, never mutated after construction (every
   operation copies); constructors drop zero weights, so the support never
   holds them. *)

let empty () = Hashtbl.create 1

(* Integer sums are exact, so a record's weight is the sum of its
   emissions in any order.  Zeros are dropped only at the end: removing a
   record mid-way and re-adding it would move it in the table, and the
   engine takes its first-sight order from this table's ([to_grid_list]). *)
let build size produce =
  let h = Hashtbl.create size in
  produce (fun x w ->
      match Hashtbl.find_opt h x with
      | None -> Hashtbl.replace h x w
      | Some w0 -> Hashtbl.replace h x (Grid.add w0 w));
  List.iter (Hashtbl.remove h) (Hashtbl.fold (fun x w acc -> if w = 0 then x :: acc else acc) h []);
  h

let of_list assoc =
  build (List.length assoc) (fun emit -> List.iter (fun (x, w) -> emit x (Grid.of_float w)) assoc)

let of_records xs =
  let one = Grid.of_float 1.0 in
  build (List.length xs) (fun emit -> List.iter (fun x -> emit x one) xs)

let singleton x w = of_list [ (x, w) ]

let update a delta =
  build (Hashtbl.length a) (fun emit ->
      Hashtbl.iter emit a;
      List.iter (fun (x, w) -> emit x (Grid.of_float w)) delta)

let add a x w = update a [ (x, w) ]
let to_grid_list h = Hashtbl.fold (fun x w acc -> (x, w) :: acc) h []
let to_list h = Hashtbl.fold (fun x w acc -> (x, Grid.to_float w) :: acc) h []
let to_sorted_list h = List.sort (fun (x, _) (y, _) -> compare x y) (to_list h)
let weight_grid h x = match Hashtbl.find_opt h x with Some w -> w | None -> 0
let weight h x = Grid.to_float (weight_grid h x)
let mem h x = Hashtbl.mem h x
let support_size = Hashtbl.length

(* Exact, order-free sums, rounded to a float once. *)
let wide_sum f h =
  let s = Grid.Wide.create () in
  Hashtbl.iter (fun x w -> Grid.Wide.add s (f x w)) h;
  Grid.Wide.to_float s

let norm h = wide_sum (fun _ w -> abs w) h
let total h = wide_sum (fun _ w -> w) h

let dist a b =
  let s = Grid.Wide.create () in
  Hashtbl.iter (fun x wa -> Grid.Wide.add s (abs (Grid.sub wa (weight_grid b x)))) a;
  Hashtbl.iter (fun x wb -> if not (Hashtbl.mem a x) then Grid.Wide.add s (abs wb)) b;
  Grid.Wide.to_float s

(* One value per record: copy the table (hashing nothing) and rewrite it. *)
let map_grid f a =
  let h = Hashtbl.copy a in
  Hashtbl.filter_map_inplace
    (fun x w ->
      let w' = f x w in
      if w' = 0 then None else Some w')
    h;
  h

let map_weights f a = map_grid (fun x w -> Grid.of_float (f x (Grid.to_float w))) a
let scale c a = map_weights (fun _ w -> c *. w) a

let filter p a =
  let h = Hashtbl.create (max 8 (Hashtbl.length a)) in
  Hashtbl.iter (fun x w -> if p x (Grid.to_float w) then Hashtbl.add h x w) a;
  h

let merge_grid f a b =
  let h = map_grid (fun x wa -> f wa (weight_grid b x)) a in
  Hashtbl.iter
    (fun x wb ->
      if not (Hashtbl.mem a x) then
        let w = f 0 wb in
        if w <> 0 then Hashtbl.add h x w)
    b;
  h

let merge f a b = merge_grid (fun wa wb -> Grid.of_float (f (Grid.to_float wa) (Grid.to_float wb))) a b
let iter_grid f a = Hashtbl.iter f a
let fold f a init = Hashtbl.fold (fun x w acc -> f x (Grid.to_float w) acc) a init
let iter f a = Hashtbl.iter (fun x w -> f x (Grid.to_float w)) a
let equal ?(tol = 1e-9) a b = dist a b <= tol

let pp pp_record fmt a =
  let item fmt (x, w) = Format.fprintf fmt "(%a, %g)" pp_record x w in
  let sep fmt () = Format.fprintf fmt ";@ " in
  Format.fprintf fmt "@[<hov 1>{%a}@]" (Format.pp_print_list ~pp_sep:sep item) (to_sorted_list a)
