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

(* GroupBy's canonical member order: grid weight descending, then record
   ascending by [compare]. *)
let member_order wx x wy y = if wx <> wy then Int.compare wy wx else compare x y

(* [record 0 :: ... :: record j :: acc]. *)
let rec prefix record j acc = if j < 0 then acc else prefix record (j - 1) (record j :: acc)

(* Prefix emissions of one GroupBy part in canonical order, over its
   positive prefix: each prefix is emitted with half the drop in weight at
   its boundary, in float arithmetic rounded to the grid once.  Each
   weight is read once. *)
let group_part ~len ~weight ~record ~reduce emit =
  let j = ref 0 and w = ref (if len > 0 then weight 0 else 0) in
  while !w > 0 do
    let next = if !j + 1 < len then weight (!j + 1) else 0 in
    let emitted = (Grid.to_float !w -. Grid.to_float (Int.max next 0)) /. 2.0 in
    if emitted > dust then emit (reduce (prefix record !j [])) (Grid.of_float emitted);
    incr j;
    w := next
  done

(* The records of [d] kept by [keep w], grouped by [key]: part [k] (key
   [Intern.value keys k], in first-sight order) is entries [start.(k)] to
   [start.(k + 1) - 1] of [xs]/[ws]/[src], in [d]'s order; [src] maps an
   entry to its record's position in [d] and [kid] a position to its key
   ([-1] when not kept).  One hash per kept record, of its key. *)
type ('k, 'a) parts = {
  keys : 'k Intern.t;
  start : int array;
  src : int array;
  kid : int array;
  xs : 'a array;
  ws : int array;
}

let index ~key ~keep d =
  let kid = Array.make (Wdata.support_size d) (-1) and keys = Intern.create () in
  let i = ref 0 in
  Wdata.iter_grid
    (fun x w ->
      if keep w then kid.(!i) <- Intern.intern keys (key x);
      incr i)
    d;
  let nk = Intern.size keys in
  let start = Array.make (nk + 1) 0 in
  Array.iter (fun k -> if k >= 0 then start.(k + 1) <- start.(k + 1) + 1) kid;
  for k = 1 to nk do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let next = Array.sub start 0 nk and xs = ref [||] in
  let src = Array.make start.(nk) 0 and ws = Array.make start.(nk) 0 in
  i := 0;
  Wdata.iter_grid
    (fun x w ->
      let k = kid.(!i) in
      if k >= 0 then begin
        if Array.length !xs = 0 then xs := Array.make start.(nk) x;
        let j = next.(k) in
        !xs.(j) <- x;
        ws.(j) <- w;
        src.(j) <- !i;
        next.(k) <- j + 1
      end;
      incr i)
    d;
  { keys; start; src; kid; xs = !xs; ws }

let part_norm p k =
  let s = ref 0 in
  for j = p.start.(k) to p.start.(k + 1) - 1 do
    s := Grid.add !s (abs p.ws.(j))
  done;
  !s

(* Each part is put in canonical order once, then emitted by [group_part]. *)
let group_by ~key ~reduce a =
  let p = index ~key ~keep:(fun w -> w > 0) a in
  Wdata.build (Intern.size p.keys) (fun emit ->
      for k = 0 to Intern.size p.keys - 1 do
        let first = p.start.(k) and len = p.start.(k + 1) - p.start.(k) in
        let part = Array.init len (fun j -> first + j) in
        Array.stable_sort (fun i j -> member_order p.ws.(i) p.xs.(i) p.ws.(j) p.xs.(j)) part;
        let key = Intern.value p.keys k in
        group_part ~len
          ~weight:(fun j -> p.ws.(part.(j)))
          ~record:(fun j -> p.xs.(part.(j)))
          ~reduce
          (fun r w -> emit (key, r) w)
      done)

let union a b = Wdata.merge_grid Int.max a b
let intersect a b = Wdata.merge_grid Int.min a b
let concat a b = Wdata.merge_grid Grid.add a b
let except a b = Wdata.merge_grid Grid.sub a b

(* Each key of [pa] is looked up in [pb]'s parts by its stored hash. *)
let iter_keys pa pb f =
  for ka = 0 to Array.length pa.start - 2 do
    let kb = Intern.find_hashed pb.keys (Intern.value pa.keys ka) (Intern.hash_of pa.keys ka) in
    if kb >= 0 then f ka kb
  done

let size p k = p.start.(k + 1) - p.start.(k)

let count_pairs pa pb =
  let n = ref 0 in
  iter_keys pa pb (fun ka kb -> n := !n + (size pa ka * size pb kb));
  !n

let iter_pairs pa pb f =
  iter_keys pa pb (fun ka kb ->
      let d = Grid.add (part_norm pa ka) (part_norm pb kb) in
      if d > 0 then
        for i = pa.start.(ka) to pa.start.(ka + 1) - 1 do
          for j = pb.start.(kb) to pb.start.(kb + 1) - 1 do
            f i j d
          done
        done)

(* The output is sized as it grows: the pair count bounds its support only
   loosely. *)
let join ~kl ~kr ~reduce a b =
  let all _ = true in
  let pa = index ~key:kl ~keep:all a and pb = index ~key:kr ~keep:all b in
  Wdata.build 0 (fun emit ->
      iter_pairs pa pb (fun i j d -> emit (reduce pa.xs.(i) pb.xs.(j)) (Grid.mul_div pa.ws.(i) pb.ws.(j) d)))

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
