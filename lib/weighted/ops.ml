let select f a =
  Wdata.build (Wdata.support_size a) (fun emit -> Wdata.iter (fun x w -> emit (f x) w) a)

let where p a = Wdata.filter (fun x _ -> p x) a

let select_many f a =
  Wdata.build (Wdata.support_size a) (fun emit ->
      Wdata.iter
        (fun x w ->
          let produced = f x in
          let n = List.fold_left (fun acc (_, wy) -> acc +. Float.abs wy) 0.0 produced in
          let scale = w /. Float.max 1.0 n in
          List.iter (fun (y, wy) -> emit y (wy *. scale)) produced)
        a)

let select_many_list f a = select_many (fun x -> List.map (fun y -> (y, 1.0)) (f x)) a

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
        if emitted > Wdata.epsilon_weight then (List.rev prefix, emitted) :: tail else tail
  in
  go [] (List.sort (fun (x, wx) (y, wy) -> match compare wy wx with 0 -> compare x y | c -> c) part)

(* The records of [d] kept by [keep w], grouped by [key] into parts listed
   in table order, in one table pre-sized to the support. *)
let index ~key ~keep d =
  let parts = Hashtbl.create (max 8 (Wdata.support_size d)) in
  Wdata.iter
    (fun x w ->
      if keep w then
        let k = key x in
        match Hashtbl.find_opt parts k with
        | Some part -> part := (x, w) :: !part
        | None -> Hashtbl.add parts k (ref [ (x, w) ]))
    d;
  parts

let group_by ~key ~reduce a =
  let parts = index ~key ~keep:(fun w -> w > 0.0) a in
  Wdata.build (Hashtbl.length parts) (fun emit ->
      Hashtbl.iter
        (fun k part ->
          List.iter (fun (members, w) -> emit (k, reduce members) w) (group_emissions !part))
        parts)

let union a b = Wdata.merge Float.max a b
let intersect a b = Wdata.merge Float.min a b
let concat a b = Wdata.merge ( +. ) a b
let except a b = Wdata.merge ( -. ) a b

let join ~kl ~kr ~reduce a b =
  (* A part is sorted, and its norm summed, once its key matches (which
     happens at most once).  Summing over the sorted part, not in table
     order, makes the denominator, and so every emitted weight, a function
     of the part's multiset: equivalent plans agree bit for bit. *)
  let all _ = true in
  let pa = index ~key:kl ~keep:all a and pb = index ~key:kr ~keep:all b in
  let canonical part =
    let part = List.sort compare !part in
    (List.fold_left (fun acc (_, w) -> acc +. Float.abs w) 0.0 part, part)
  in
  let matched = ref [] and size = ref 0 in
  Hashtbl.iter
    (fun k xs ->
      Option.iter
        (fun ys ->
          let (na, xs), (nb, ys) = (canonical xs, canonical ys) in
          if na +. nb > Wdata.epsilon_weight then begin
            matched := (na +. nb, xs, ys) :: !matched;
            size := !size + (List.length xs * List.length ys)
          end)
        (Hashtbl.find_opt pb k))
    pa;
  Wdata.build !size (fun emit ->
      List.iter
        (fun (denom, xs, ys) ->
          List.iter
            (fun (x, wx) -> List.iter (fun (y, wy) -> emit (reduce x y) (wx *. wy /. denom)) ys)
            xs)
        !matched)

(* Shave's emissions for a single record of weight [w], folded with [f]:
   indexed slabs drawn from [seq], clipped to the remaining weight.  Stops on
   exhaustion of either the sequence, the weight, or at a non-positive slab. *)
let shave_fold f seq w acc =
  let rec go i remaining seq acc =
    match Seq.uncons seq with
    | Some (slab, rest) when remaining > Wdata.epsilon_weight && slab > 0.0 ->
        let emitted = Float.min slab remaining in
        go (i + 1) (remaining -. emitted) rest (f i emitted acc)
    | _ -> acc
  in
  go 0 w seq acc

let shave_emissions seq w = List.rev (shave_fold (fun i wi acc -> (i, wi) :: acc) seq w [])

let shave f a =
  Wdata.build (Wdata.support_size a) (fun emit ->
      Wdata.iter
        (fun x w -> if w > 0.0 then shave_fold (fun i wi () -> emit (x, i) wi) (f x) w ())
        a)

let distinct ?(bound = 1.0) a =
  if bound <= 0.0 then invalid_arg "Ops.distinct: bound must be positive";
  Wdata.map_weights (fun _ w -> Float.max 0.0 (Float.min bound w)) a

let shave_const w a =
  if w <= 0.0 then invalid_arg "Ops.shave_const: slab weight must be positive";
  shave (fun _ -> Seq.repeat w) a
