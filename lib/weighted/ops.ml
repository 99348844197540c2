let select f a =
  Wdata.build (Wdata.support_size a) (fun emit -> Wdata.iter_grid (fun x w -> emit (f x) w) a)

let where p a = Wdata.filter (fun x _ -> p x) a
let produced_norm ys = Float.max 1.0 (List.fold_left (fun acc (_, wy) -> acc +. Float.abs wy) 0.0 ys)

let select_many f a =
  Wdata.build (Wdata.support_size a) (fun emit ->
      Wdata.iter_grid
        (fun x w ->
          let ys = f x in
          let n = produced_norm ys in
          List.iter (fun (y, wy) -> emit y (Grid.scale_share wy w n)) ys)
        a)

let select_many_list f a = select_many (fun x -> List.map (fun y -> (y, 1.0)) (f x)) a

(* GroupBy drops a float emission, and Shave a remainder, at or below this
   (about 1.1 grid units), in both interpreters. *)
let dust = 1e-12

(* Prefix emissions of one GroupBy part: records ordered by non-increasing
   weight (record order breaking ties, for determinism), each prefix emitted
   with half the drop in weight at its boundary. *)
let group_emissions part =
  let rec go prefix = function
    | [] -> []
    | (x, w) :: rest ->
        let prefix = x :: prefix in
        let w_next = match rest with (_, w') :: _ -> w' | [] -> 0.0 in
        let emitted = (w -. w_next) /. 2.0 and tail = go prefix rest in
        if emitted > dust then (List.rev prefix, emitted) :: tail else tail
  in
  go [] (List.sort (fun (x, wx) (y, wy) -> match compare wy wx with 0 -> compare x y | c -> c) part)

(* The records of [d] kept by [keep w], grouped by [key] into parts listed
   in table order, in one table pre-sized to the support. *)
let index ~key ~keep d =
  let parts = Hashtbl.create (max 8 (Wdata.support_size d)) in
  Wdata.iter_grid
    (fun x w ->
      if keep w then
        let k = key x in
        match Hashtbl.find_opt parts k with
        | Some part -> part := (x, w) :: !part
        | None -> Hashtbl.add parts k (ref [ (x, w) ]))
    d;
  parts

let group_by ~key ~reduce a =
  let parts = index ~key ~keep:(fun w -> w > 0) a in
  Wdata.build (Hashtbl.length parts) (fun emit ->
      Hashtbl.iter
        (fun k part ->
          let part = List.map (fun (x, w) -> (x, Grid.to_float w)) !part in
          List.iter
            (fun (members, w) -> emit (k, reduce members) (Grid.of_float w))
            (group_emissions part))
        parts)

let union a b = Wdata.merge_grid Int.max a b
let intersect a b = Wdata.merge_grid Int.min a b
let concat a b = Wdata.merge_grid Grid.add a b
let except a b = Wdata.merge_grid Grid.sub a b

let join ~kl ~kr ~reduce a b =
  let all _ = true in
  let pa = index ~key:kl ~keep:all a and pb = index ~key:kr ~keep:all b in
  let norm part = List.fold_left (fun acc (_, w) -> Grid.add acc (abs w)) 0 part in
  let matched = ref [] and size = ref 0 in
  Hashtbl.iter
    (fun k xs ->
      Option.iter
        (fun ys ->
          let denom = Grid.add (norm !xs) (norm !ys) in
          if denom > 0 then begin
            matched := (denom, !xs, !ys) :: !matched;
            size := !size + (List.length !xs * List.length !ys)
          end)
        (Hashtbl.find_opt pb k))
    pa;
  Wdata.build !size (fun emit ->
      List.iter
        (fun (d, xs, ys) ->
          List.iter
            (fun (x, wx) -> List.iter (fun (y, wy) -> emit (reduce x y) (Grid.mul_div wx wy d)) ys)
            xs)
        !matched)

(* Shave's emissions for a single record of weight [w], folded with [f]:
   indexed slabs drawn from [seq], clipped to the remaining weight.  Stops on
   exhaustion of either the sequence, the weight, or at a non-positive slab. *)
let shave_fold f seq w acc =
  let rec go i remaining seq acc =
    match Seq.uncons seq with
    | Some (slab, rest) when remaining > dust && slab > 0.0 ->
        let emitted = Float.min slab remaining in
        go (i + 1) (remaining -. emitted) rest (f i emitted acc)
    | _ -> acc
  in
  go 0 w seq acc

let shave_emissions seq w = List.rev (shave_fold (fun i wi acc -> (i, wi) :: acc) seq w [])

let shave f a =
  Wdata.build (Wdata.support_size a) (fun emit ->
      Wdata.iter_grid
        (fun x w ->
          if w > 0 then
            shave_fold (fun i wi () -> emit (x, i) (Grid.of_float wi)) (f x) (Grid.to_float w) ())
        a)

let capper bound =
  let bound = Grid.of_float bound in
  fun w -> if w <= 0 then 0 else if w >= bound then bound else w

let distinct ?(bound = 1.0) a =
  if bound <= 0.0 then invalid_arg "Ops.distinct: bound must be positive";
  let cap = capper bound in
  Wdata.map_grid (fun _ w -> cap w) a

let shave_const w a =
  if w <= 0.0 then invalid_arg "Ops.shave_const: slab weight must be positive";
  shave (fun _ -> Seq.repeat w) a
