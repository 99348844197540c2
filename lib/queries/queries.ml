(* Per-record helpers that close over other bindings live at module level,
   OUTSIDE the functor: OCaml statically allocates a closed lambda once,
   but a lambda referencing a functor-local binding is re-allocated per
   instantiation.  Keeping these global means two instantiations of [Make]
   embed physically identical closures in their plans — which is what lets
   {!Wpinq_core.Plan}'s hash-consing recognize [Make (Plan)] built twice
   as one DAG. *)
let rotate3 (a, b, c) = (b, c, a)
let rotate3_keyed (p, d) = (rotate3 p, d)
let rotate2 (a, b, c, d) = (c, d, a, b)
let rotate2_keyed (p, db, dc) = (rotate2 p, db, dc)

(* Bucketed reduces capture the bucket width, so they are interned by it:
   [tbd ~bucket:2] over two functor instances must embed the same closure.
   Guarded by a mutex — plans are built from service worker domains too. *)
let bucket_reduce_tbl : (int, (int * int) list -> int) Hashtbl.t = Hashtbl.create 8
let bucket_reduce_lock = Mutex.create ()

let bucket_reduce bucket =
  Mutex.protect bucket_reduce_lock (fun () ->
      match Hashtbl.find_opt bucket_reduce_tbl bucket with
      | Some f -> f
      | None ->
          let f l = List.length l / bucket in
          Hashtbl.add bucket_reduce_tbl bucket f;
          f)

(* A memo entry keeps its pipeline as long as its input lives and never
   keeps the input alive; [alive] lets entries with a dead input be pruned. *)
type ('k, 'v) memo_entry = { alive : 'k Weak.t; eph : ('k, 'v) Ephemeron.K1.t }

module Make (L : Wpinq_core.Lang.S) = struct
  type edge = int * int

  (* Cross-query sharing: every pipeline builder is memoized on the
     *physical identity* of its input collection, so [tbd sym] and
     [jdd sym] over the same [sym] return pipelines built from the same
     intermediate values — the same [degrees], the same [paths2], the same
     path-degree join.  Over {!Wpinq_core.Plan} a reused value *is* a
     shared DAG node, so a multi-measurement fit lowers the common
     prefixes once; over the direct interpreters reuse was already
     harmless (Batch diamonds evaluate once; Flow nodes accept many
     subscribers). *)
  let memo1 f =
    let cache = ref [] in
    fun x ->
      match List.find_map (fun e -> Ephemeron.K1.query e.eph x) !cache with
      | Some v -> v
      | None ->
          let v = f x in
          let alive = Weak.create 1 in
          Weak.set alive 0 (Some x);
          let live = List.filter (fun e -> Weak.check e.alive 0) !cache in
          cache := { alive; eph = Ephemeron.K1.make x v } :: live;
          v

  let memo_bucket f =
    let by_input = memo1 (fun _ -> ref []) in
    fun ~bucket x ->
      let cache = by_input x in
      match List.assoc_opt bucket !cache with
      | Some v -> v
      | None ->
          let v = f ~bucket x in
          cache := (bucket, v) :: !cache;
          v

  let symmetrize = memo1 (fun edges -> L.concat (L.select (fun (a, b) -> (b, a)) edges) edges)
  let degrees = memo1 (fun sym -> L.group_by ~key:fst ~reduce:List.length sym)

  let degree_ccdf = memo1 (fun sym -> L.select snd (L.shave_const 1.0 (L.select fst sym)))

  let degree_sequence = memo1 (fun sym -> L.select snd (L.shave_const 1.0 (degree_ccdf sym)))

  let nodes =
    memo1 (fun sym ->
        (* Section 2.8: SelectMany to endpoints (each at d_v/2 after
           accumulation), Shave into 0.5 slabs, keep slab 0. *)
        L.select fst
          (L.where (fun (_, i) -> i = 0)
             (L.shave_const 0.5 (L.select_many (fun (a, b) -> [ (a, 0.5); (b, 0.5) ]) sym))))

  let node_count = memo1 (fun sym -> L.select (fun _ -> ()) (nodes sym))
  let edge_count = memo1 (fun sym -> L.select (fun _ -> ()) sym)

  let paths2 =
    memo1 (fun sym ->
        L.where
          (fun (a, _, c) -> a <> c)
          (L.join ~kl:snd ~kr:fst ~reduce:(fun (a, b) (_, c) -> (a, b, c)) sym sym))

  let jdd =
    memo1 (fun sym ->
        let degs = degrees sym in
        (* ((a,b), d_a) for each directed edge. *)
        let temp =
          L.join
            ~kl:(fun (v, _) -> v)
            ~kr:fst
            ~reduce:(fun (_, d) e -> (e, d))
            degs sym
        in
        L.join
          ~kl:(fun (e, _) -> e)
          ~kr:(fun ((a, b), _) -> (b, a))
          ~reduce:(fun (_, da) (_, db) -> (da, db))
          temp temp)

  let sort3 (a, b, c) =
    let x = min a (min b c) and z = max a (max b c) in
    (x, a + b + c - x - z, z)

  let bucketed_degrees_raw =
    memo_bucket (fun ~bucket sym ->
        L.group_by ~key:fst ~reduce:(bucket_reduce bucket) sym)

  let bucketed_degrees ~bucket sym =
    if bucket < 1 then invalid_arg "Queries: bucket must be >= 1";
    (* Dividing by 1 is the identity, so bucket-1 queries alias the plain
       [degrees] pipeline — TbD at the default bucket then shares its
       degree node with JDD. *)
    if bucket = 1 then degrees sym else bucketed_degrees_raw ~bucket sym

  (* (path, degree-of-middle-vertex): 〈(a,b,c), d_b〉 at 1/(2 d_b²).  The
     common prefix of TbD and SbD. *)
  let path_middle_degree =
    memo_bucket (fun ~bucket sym ->
        L.join
          ~kl:(fun (_, b, _) -> b)
          ~kr:fst
          ~reduce:(fun p (_, d) -> (p, d))
          (paths2 sym)
          (bucketed_degrees ~bucket sym))

  let tbd_raw =
    memo_bucket (fun ~bucket sym ->
        let abc = path_middle_degree ~bucket sym in
        (* Rotations carry the same degree to the other two positions:
           bca holds 〈(b,c,a), d_b〉 (first vertex), cab 〈(c,a,b), d_b〉 (last). *)
        let bca = L.select rotate3_keyed abc in
        let cab = L.select rotate3_keyed bca in
        (* Joining all three on the path key matches exactly when all rotations
           exist, i.e. on triangles; the degrees collected are those of the
           middle, first and last vertices of the shared path. *)
        let partial =
          L.join
            ~kl:(fun (p, _) -> p)
            ~kr:(fun (p, _) -> p)
            ~reduce:(fun (p, d_mid) (_, d_first) -> (p, d_mid, d_first))
            abc bca
        in
        let tris =
          L.join
            ~kl:(fun (p, _, _) -> p)
            ~kr:(fun (p, _) -> p)
            ~reduce:(fun (_, d_mid, d_first) (_, d_last) -> (d_first, d_mid, d_last))
            partial cab
        in
        L.select sort3 tris)

  let tbd ?(bucket = 1) sym =
    if bucket < 1 then invalid_arg "Queries: bucket must be >= 1";
    tbd_raw ~bucket sym

  let sort4 (a, b, c, d) =
    match List.sort compare [ a; b; c; d ] with
    | [ w; x; y; z ] -> (w, x, y, z)
    | _ -> assert false

  let sbd_raw =
    memo_bucket (fun ~bucket sym ->
        let abc = path_middle_degree ~bucket sym in
        (* Length-three paths (a,b,c,d) with the degrees of both middle
           vertices, keyed by the shared edge (b,c). *)
        let abcd =
          L.where
            (fun ((a, _, _, d), _, _) -> a <> d)
            (L.join
               ~kl:(fun ((_, b, c), _) -> (b, c))
               ~kr:(fun ((b, c, _), _) -> (b, c))
               ~reduce:(fun ((a, b, c), db) ((_, _, d), dc) -> ((a, b, c, d), db, dc))
               abc abc)
        in
        let cdab = L.select rotate2_keyed abcd in
        (* A record (a,b,c,d) in cdab descends from the path (c,d,a,b), so it
           carries (d_d, d_a); matching it with abcd's (d_b, d_c) collects all
           four degrees of the square. *)
        let squares =
          L.join
            ~kl:(fun (p, _, _) -> p)
            ~kr:(fun (p, _, _) -> p)
            ~reduce:(fun (_, db, dc) (_, dd, da) -> (da, db, dc, dd))
            abcd cdab
        in
        L.select sort4 squares)

  let sbd ?(bucket = 1) sym =
    if bucket < 1 then invalid_arg "Queries: bucket must be >= 1";
    sbd_raw ~bucket sym

  let tbi =
    memo1 (fun sym ->
        let paths = paths2 sym in
        let rotated = L.select rotate3 paths in
        let triangles = L.intersect rotated paths in
        L.select (fun _ -> ()) triangles)

  let degree_histogram = memo1 (fun sym -> L.select snd (degrees sym))

  let paths3 =
    memo1 (fun sym ->
        (* Extend each 2-path by one edge (3 uses: 2 for the paths + 1 for the
           edges), keeping walks whose four vertices are distinct. *)
        L.where
          (fun (a, b, _, d) -> a <> d && b <> d)
          (L.join
             ~kl:(fun (_, _, c) -> c)
             ~kr:fst
             ~reduce:(fun (a, b, c) (_, d) -> (a, b, c, d))
             (paths2 sym) sym))

  let sbi =
    memo1 (fun sym ->
        let paths = paths3 sym in
        (* A length-3 path a-b-c-d closes into a square exactly when c-d-a-b is
           also a path; intersecting with the double rotation keeps only
           those. *)
        let rotated = L.select rotate2 paths in
        let squares = L.intersect rotated paths in
        L.select (fun _ -> ()) squares)
end

let tbd_triple_weight (x, y, z) =
  3.0 /. float_of_int ((x * x) + (y * y) + (z * z))

let jdd_pair_weight (da, db) = 1.0 /. float_of_int (2 + (2 * da) + (2 * db))

let sbd_cycle_weight da db dc dd =
  1.0
  /. (2.0
     *. float_of_int
          ((da * da * (dd - 1))
          + (dd * dd * (da - 1))
          + (db * db * (dc - 1))
          + (dc * dc * (db - 1))))

let tbi_triangle_term da db dc =
  let ra = 1.0 /. float_of_int da
  and rb = 1.0 /. float_of_int db
  and rc = 1.0 /. float_of_int dc in
  Float.min ra rb +. Float.min ra rc +. Float.min rb rc
