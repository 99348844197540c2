module Prng = Wpinq_prng.Prng

type t = { n : int; adj : int array array; m : int }

let normalize (u, v) = if u <= v then (u, v) else (v, u)

let of_edges ?n edge_list =
  let max_id = List.fold_left (fun acc (u, v) -> max acc (max u v)) (-1) edge_list in
  let n = match n with Some n -> max n (max_id + 1) | None -> max_id + 1 in
  let seen = Hashtbl.create (max 16 (List.length edge_list)) in
  let deg = Array.make (max n 1) 0 in
  List.iter
    (fun e ->
      let u, v = normalize e in
      if u <> v && u >= 0 && not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.replace seen (u, v) ();
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end)
    edge_list;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) () ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    seen;
  Array.iter (fun nbrs -> Array.sort compare nbrs) adj;
  { n; adj; m = Hashtbl.length seen }

let n g = g.n
let m g = g.m

let edges g =
  let acc = ref [] in
  Array.iteri
    (fun u nbrs -> Array.iter (fun v -> if u < v then acc := (u, v) :: !acc) nbrs)
    g.adj;
  !acc

let directed_edges g =
  let acc = ref [] in
  Array.iteri (fun u nbrs -> Array.iter (fun v -> acc := (u, v) :: !acc) nbrs) g.adj;
  !acc

let adj g v = g.adj.(v)

let has_edge g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then false
  else
    let nbrs = g.adj.(u) in
    let rec bsearch lo hi =
      if lo >= hi then false
      else
        let mid = (lo + hi) / 2 in
        if nbrs.(mid) = v then true
        else if nbrs.(mid) < v then bsearch (mid + 1) hi
        else bsearch lo mid
    in
    bsearch 0 (Array.length nbrs)

let degree g v = Array.length g.adj.(v)
let degrees g = Array.map Array.length g.adj
let dmax g = Array.fold_left (fun acc nbrs -> max acc (Array.length nbrs)) 0 g.adj

let sum_deg_sq g =
  Array.fold_left (fun acc nbrs -> acc + (Array.length nbrs * Array.length nbrs)) 0 g.adj

let degree_sequence_desc g =
  let d = degrees g in
  Array.sort (fun a b -> compare b a) d;
  d

let degree_ccdf g =
  let dm = dmax g in
  let ccdf = Array.make (max dm 1) 0 in
  Array.iter
    (fun nbrs ->
      let d = Array.length nbrs in
      for i = 0 to d - 1 do
        ccdf.(i) <- ccdf.(i) + 1
      done)
    g.adj;
  ccdf

(* Sorted-array intersection, counting common neighbors greater than
   [floor].  Used to enumerate each triangle exactly once as u < v < w. *)
let iter_common_above g u v floor f =
  let a = g.adj.(u) and b = g.adj.(v) in
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      if x > floor then f x;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done

let iter_triangles g f =
  Array.iteri
    (fun u nbrs ->
      Array.iter (fun v -> if u < v then iter_common_above g u v v (fun w -> f u v w)) nbrs)
    g.adj

(* Triangles of an edge set of [m] edges over vertices below [n] of degrees
   [deg], where [iter_edges f] calls [f u v] once per edge.  Each edge is
   oriented towards its endpoint of higher (degree, id) rank, so no vertex
   has more than √(2m) out-neighbours, and each triangle is found once,
   from its lowest-ranked vertex, which marks its out-neighbours and looks
   for them among theirs. *)
let oriented_triangles ~n ~m ~deg iter_edges =
  let above u v = deg.(u) < deg.(v) || (deg.(u) = deg.(v) && u < v) in
  let start = Array.make (n + 1) 0 in
  iter_edges (fun u v ->
      let low = if above u v then u else v in
      start.(low + 1) <- start.(low + 1) + 1);
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let out = Array.make (max m 1) 0 and fill = Array.sub start 0 (max n 1) in
  iter_edges (fun u v ->
      let low, high = if above u v then (u, v) else (v, u) in
      out.(fill.(low)) <- high;
      fill.(low) <- fill.(low) + 1);
  let mark = Array.make (max n 1) (-1) and c = ref 0 in
  for u = 0 to n - 1 do
    for i = start.(u) to start.(u + 1) - 1 do
      mark.(out.(i)) <- u
    done;
    for i = start.(u) to start.(u + 1) - 1 do
      let v = out.(i) in
      for j = start.(v) to start.(v + 1) - 1 do
        if mark.(out.(j)) = u then incr c
      done
    done
  done;
  !c

let iter_undirected g f =
  Array.iteri (fun u nbrs -> Array.iter (fun v -> if u < v then f u v) nbrs) g.adj

let triangle_count g = oriented_triangles ~n:g.n ~m:g.m ~deg:(degrees g) (iter_undirected g)

let sort3 (a, b, c) =
  let x = min a (min b c) and z = max a (max b c) in
  (x, a + b + c - x - (max a (max b c)), z)

let triangles_by_degree g =
  let counts = Hashtbl.create 64 in
  iter_triangles g (fun u v w ->
      let key = sort3 (degree g u, degree g v, degree g w) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)));
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts []

(* Common-neighbor counts per unordered vertex pair: for every vertex, every
   pair of its neighbors gains one common neighbor.  O(Σ d²) work. *)
let common_neighbor_counts g =
  let counts = Hashtbl.create (16 * g.n) in
  Array.iter
    (fun nbrs ->
      let d = Array.length nbrs in
      for i = 0 to d - 2 do
        for j = i + 1 to d - 1 do
          let key = (nbrs.(i), nbrs.(j)) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
        done
      done)
    g.adj;
  counts

let square_count g =
  (* Each 4-cycle is seen from both diagonals: #C4 = Σ C(cnt,2) / 2. *)
  let pairs =
    Hashtbl.fold (fun _ c acc -> acc + (c * (c - 1) / 2)) (common_neighbor_counts g) 0
  in
  pairs / 2

let sort4 (a, b, c, d) =
  match List.sort compare [ a; b; c; d ] with
  | [ w; x; y; z ] -> (w, x, y, z)
  | _ -> assert false

let squares_by_degree g =
  (* For each diagonal pair (u,w) and each unordered pair {x,y} of their
     common neighbors, the cycle u-x-w-y is counted; each square appears
     from both of its diagonals, so halve at the end. *)
  let commons = Hashtbl.create (16 * g.n) in
  Array.iteri
    (fun v nbrs ->
      let d = Array.length nbrs in
      for i = 0 to d - 2 do
        for j = i + 1 to d - 1 do
          let key = (nbrs.(i), nbrs.(j)) in
          let cur = Option.value ~default:[] (Hashtbl.find_opt commons key) in
          Hashtbl.replace commons key (v :: cur)
        done
      done)
    g.adj;
  let doubled = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (u, w) middles ->
      let rec pairs = function
        | [] -> ()
        | x :: rest ->
            List.iter
              (fun y ->
                let key = sort4 (degree g u, degree g x, degree g w, degree g y) in
                Hashtbl.replace doubled key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt doubled key)))
              rest;
            pairs rest
      in
      pairs middles)
    commons;
  Hashtbl.fold
    (fun k c acc ->
      assert (c mod 2 = 0);
      (k, c / 2) :: acc)
    doubled []

let joint_degree_counts g =
  let counts = Hashtbl.create 64 in
  Array.iteri
    (fun u nbrs ->
      Array.iter
        (fun v ->
          if u < v then begin
            let du = degree g u and dv = degree g v in
            let key = (min du dv, max du dv) in
            Hashtbl.replace counts key
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
          end)
        nbrs)
    g.adj;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts []

(* Newman's r over directed edge endpoints (j, k): both orientations of
   each edge [iter_edges] gives.  The sums are exact ints, converted once. *)
let assortativity_of ~deg iter_edges =
  let sum_jk = ref 0 and sum_j = ref 0 and sum_j2 = ref 0 and cnt = ref 0 in
  iter_edges (fun u v ->
      let du = deg.(u) and dv = deg.(v) in
      sum_jk := !sum_jk + (2 * du * dv);
      sum_j := !sum_j + du + dv;
      sum_j2 := !sum_j2 + (du * du) + (dv * dv);
      cnt := !cnt + 2);
  let c = float_of_int !cnt in
  if c = 0.0 then Float.nan
  else
    let mean = float_of_int !sum_j /. c in
    let num = (float_of_int !sum_jk /. c) -. (mean *. mean) in
    let den = (float_of_int !sum_j2 /. c) -. (mean *. mean) in
    if Float.abs den < 1e-12 then Float.nan else num /. den

let assortativity g = assortativity_of ~deg:(degrees g) (iter_undirected g)

let clustering_coefficient g =
  let open_paths =
    Array.fold_left
      (fun acc nbrs ->
        let d = Array.length nbrs in
        acc + (d * (d - 1) / 2))
      0 g.adj
  in
  if open_paths = 0 then 0.0
  else 3.0 *. float_of_int (triangle_count g) /. float_of_int open_paths

let tbi_signal g =
  let acc = ref 0.0 in
  iter_triangles g (fun u v w ->
      let da = 1.0 /. float_of_int (degree g u)
      and db = 1.0 /. float_of_int (degree g v)
      and dc = 1.0 /. float_of_int (degree g w) in
      acc := !acc +. Float.min da db +. Float.min da dc +. Float.min db dc);
  !acc

module Mutable = struct
  type graph = t

  (* Struct-of-arrays edge store: endpoints live in two parallel [int]
     arrays (normalized [u < v]) and the membership index is an
     open-addressing table over the packed key [u * n + v] — no tuple is
     allocated per probed candidate, and no polymorphic hash runs on the
     hot path of the proposal generator. *)
  type t = {
    n : int;
    eu : int array; (* endpoint u at each edge slot, u < v *)
    ev : int array; (* endpoint v at each edge slot *)
    m : int;
    mutable keys : int array; (* 0 = empty, -1 = tombstone, else packed key + 1 *)
    mutable vals : int array; (* edge slot for the key at the same index *)
    mutable mask : int;
    mutable tombs : int;
    deg : int array;
  }

  type swap = { remove : (int * int) * (int * int); add : (int * int) * (int * int) }

  let pack t u v = (u * t.n) + v
  let slot_of t key = key * 0x9E3779B1 land max_int land t.mask

  (* Linear probing.  Lookups must skip tombstones; inserts may fill
     them.  Returns the index holding [key], or -1. *)
  let idx_find t key =
    let stored = key + 1 in
    let s = ref (slot_of t key) in
    let r = ref (-2) in
    while !r = -2 do
      let k = t.keys.(!s) in
      if k = stored then r := !s
      else if k = 0 then r := -1
      else s := (!s + 1) land t.mask
    done;
    !r

  let idx_mem t key = idx_find t key >= 0

  let idx_insert t key v =
    let stored = key + 1 in
    let s = ref (slot_of t key) in
    while t.keys.(!s) <> 0 && t.keys.(!s) <> -1 do
      s := (!s + 1) land t.mask
    done;
    if t.keys.(!s) = -1 then t.tombs <- t.tombs - 1;
    t.keys.(!s) <- stored;
    t.vals.(!s) <- v

  let idx_remove t key =
    let i = idx_find t key in
    if i >= 0 then begin
      t.keys.(i) <- -1;
      t.tombs <- t.tombs + 1
    end

  (* Rebuild the table in edge-slot order once tombstones crowd it.  The
     trigger and the rebuild order are both deterministic functions of
     the edge state, so resumed chains probe identically. *)
  let idx_rebuild t =
    Array.fill t.keys 0 (Array.length t.keys) 0;
    t.tombs <- 0;
    for i = 0 to t.m - 1 do
      idx_insert t (pack t t.eu.(i) t.ev.(i)) i
    done

  let idx_maybe_rehash t = if 4 * (t.m + t.tombs) > 3 * (t.mask + 1) then idx_rebuild t

  let index_capacity m =
    let cap = ref 16 in
    while !cap < 4 * m do
      cap := !cap * 2
    done;
    !cap

  let of_edge_array ~n edges =
    if n < 0 then invalid_arg "Mutable.of_edge_array: negative n";
    let m = Array.length edges in
    let eu = Array.make (max m 1) 0 and ev = Array.make (max m 1) 0 in
    let cap = index_capacity m in
    let t =
      {
        n;
        eu;
        ev;
        m;
        keys = Array.make cap 0;
        vals = Array.make cap 0;
        mask = cap - 1;
        tombs = 0;
        deg = Array.make (max n 1) 0;
      }
    in
    Array.iteri
      (fun i e ->
        let u, v = normalize e in
        if u < 0 || v >= n then invalid_arg "Mutable.of_edge_array: vertex id out of range";
        if u = v then invalid_arg "Mutable.of_edge_array: self-loop";
        let key = pack t u v in
        if idx_mem t key then invalid_arg "Mutable.of_edge_array: duplicate edge";
        eu.(i) <- u;
        ev.(i) <- v;
        idx_insert t key i;
        t.deg.(u) <- t.deg.(u) + 1;
        t.deg.(v) <- t.deg.(v) + 1)
      edges;
    t

  let of_graph (g : graph) = of_edge_array ~n:g.n (Array.of_list (edges g))
  let edge_array t = Array.init t.m (fun i -> (t.eu.(i), t.ev.(i)))
  (* Sorted adjacency rows filled straight from the edge arrays: the edge
     set is already free of loops and duplicates, so [of_edges]' list and
     deduplicating table are not needed. *)
  let to_graph t =
    let adj = Array.init t.n (fun v -> Array.make t.deg.(v) 0) and fill = Array.make t.n 0 in
    let add u v =
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1
    in
    for i = 0 to t.m - 1 do
      add t.eu.(i) t.ev.(i);
      add t.ev.(i) t.eu.(i)
    done;
    Array.iter (Array.sort Int.compare) adj;
    { n = t.n; adj; m = t.m }

  let iter_edges t f =
    for i = 0 to t.m - 1 do
      f t.eu.(i) t.ev.(i)
    done

  let triangle_count t = oriented_triangles ~n:t.n ~m:t.m ~deg:t.deg (iter_edges t)
  let assortativity t = assortativity_of ~deg:t.deg (iter_edges t)

  let copy t =
    {
      t with
      eu = Array.copy t.eu;
      ev = Array.copy t.ev;
      keys = Array.copy t.keys;
      vals = Array.copy t.vals;
      deg = Array.copy t.deg;
    }

  let n t = t.n
  let m t = t.m

  let has_edge t u v =
    let u, v = if u < v then (u, v) else (v, u) in
    idx_mem t (pack t u v)

  let degree t v = t.deg.(v)

  let propose_swap t rng =
    let m = t.m in
    if m < 2 then None
    else
      let i = Prng.int rng m in
      let j = Prng.int rng m in
      if i = j then None
      else
        let a = t.eu.(i) and b = t.ev.(i) in
        let c0 = t.eu.(j) and d0 = t.ev.(j) in
        (* Randomly orient the second edge so both re-pairings are
           reachable. *)
        let orient = Prng.bool rng in
        let c = if orient then c0 else d0 in
        let d = if orient then d0 else c0 in
        if a = d || c = b then None
        else
          let u1 = if a < d then a else d and v1 = if a < d then d else a in
          let u2 = if c < b then c else b and v2 = if c < b then b else c in
          let k1 = pack t u1 v1 and k2 = pack t u2 v2 in
          if k1 = k2 || idx_mem t k1 || idx_mem t k2 then None
          else Some { remove = ((a, b), (c, d)); add = ((u1, v1), (u2, v2)) }

  let apply t { remove = r1, r2; add = a1, a2 } =
    let ru1, rv1 = normalize r1 and ru2, rv2 = normalize r2 in
    let au1, av1 = normalize a1 and au2, av2 = normalize a2 in
    let kr1 = pack t ru1 rv1 and kr2 = pack t ru2 rv2 in
    let ka1 = pack t au1 av1 and ka2 = pack t au2 av2 in
    let i = idx_find t kr1 in
    if i < 0 then invalid_arg "Mutable.apply: removed edge absent";
    let j = idx_find t kr2 in
    if j < 0 then invalid_arg "Mutable.apply: removed edge absent";
    if idx_mem t ka1 || idx_mem t ka2 then invalid_arg "Mutable.apply: added edge already present";
    let i = t.vals.(i) and j = t.vals.(j) in
    idx_remove t kr1;
    idx_remove t kr2;
    t.eu.(i) <- au1;
    t.ev.(i) <- av1;
    t.eu.(j) <- au2;
    t.ev.(j) <- av2;
    idx_insert t ka1 i;
    idx_insert t ka2 j;
    idx_maybe_rehash t

  let invert { remove; add } = { remove = add; add = remove }

  let delta { remove = r1, r2; add = a1, a2 } =
    let both w (u, v) = [ ((u, v), w); ((v, u), w) ] in
    List.concat [ both (-1.0) r1; both (-1.0) r2; both 1.0 a1; both 1.0 a2 ]
end
