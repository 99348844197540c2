(* Reified query plans: a typed operator DAG, hash-consed so that equal
   subtrees are equal nodes.  Building the same pipeline twice — in one
   functor instantiation or across several — returns the same physical
   node, so cross-query sharing no longer depends on analysts reusing
   values by hand: the memoizing lowering sees one id and builds one
   interpreter node.  On top of the canonical DAG sits a small optimizer
   (cost-guided, privacy-sound rewrites) and a plan cache keyed on the
   canonical structural hash, so repeated queries across fits, tenants
   and stream epochs lower to the same dataflow. *)

type 'a t = {
  id : int;
  tid : 'a Type.Id.t;
  shape : 'a shape;
  mutable consumers : int;
      (* Distinct parent nodes ever interned over this node.  Used by the
         optimizer's cost guards: a rewrite that would duplicate work is
         only applied when the rewritten child has a single consumer. *)
}

and _ shape =
  | Source : string -> 'a shape
  | Select : ('b -> 'a) * 'b t -> 'a shape
  | Where : ('a -> bool) * 'a t -> 'a shape
  | Select_many : ('b -> ('a * float) list) * 'b t -> 'a shape
  | Select_many_list : ('b -> 'a list) * 'b t -> 'a shape
  | Concat : 'a t * 'a t -> 'a shape
  | Except : 'a t * 'a t -> 'a shape
  | Union : 'a t * 'a t -> 'a shape
  | Intersect : 'a t * 'a t -> 'a shape
  | Join : ('b -> 'k) * ('c -> 'k) * ('b -> 'c -> 'a) * 'b t * 'c t -> 'a shape
  | Group_by : ('b -> 'k) * ('b list -> 'r) * 'b t -> ('k * 'r) shape
  | Distinct : float option * 'a t -> 'a shape
  | Shave : ('b -> float Seq.t) * 'b t -> ('b * int) shape
  | Shave_const : float * 'b t -> ('b * int) shape

type ex = Ex : 'a t -> ex

(* All global plan state (the hash-cons table, the memoized cost / hash /
   estimate caches, the optimizer's plan cache) is guarded by one mutex:
   plans are built and optimized from service worker domains as well as
   the main fit loop.  Public entry points take the lock once; internal
   [*0] helpers assume it is held. *)
let lock = Mutex.create ()
let locked f = Mutex.protect lock f

let counter = ref 0

(* ---------- Hash-consing ---------- *)

(* Structural identity is (operator, physical identity of the embedded
   closures, identity of the children).  Closures are compared with
   physical equality: OCaml allocates a closed lambda once, statically,
   so the same source text yields the same closure value across calls —
   and across functor instantiations ([Queries.Make (Plan)] twice builds
   physically identical DAGs, which the tests pin down.  A lambda that
   captures a fresh environment is a fresh closure and correctly hashes
   to a fresh node. *)

let obj_eq a b = Obj.repr a == Obj.repr b

let shape_hash : type a. a shape -> int = function
  | Source _ -> assert false (* sources are never interned; see [source] *)
  | Select (_, u) -> Hashtbl.hash (1, u.id)
  | Where (_, u) -> Hashtbl.hash (2, u.id)
  | Select_many (_, u) -> Hashtbl.hash (3, u.id)
  | Select_many_list (_, u) -> Hashtbl.hash (4, u.id)
  | Concat (a, b) -> Hashtbl.hash (5, a.id, b.id)
  | Except (a, b) -> Hashtbl.hash (6, a.id, b.id)
  | Union (a, b) -> Hashtbl.hash (7, a.id, b.id)
  | Intersect (a, b) -> Hashtbl.hash (8, a.id, b.id)
  | Join (_, _, _, a, b) -> Hashtbl.hash (9, a.id, b.id)
  | Group_by (_, _, u) -> Hashtbl.hash (10, u.id)
  | Distinct (bound, u) -> Hashtbl.hash (11, bound, u.id)
  | Shave (_, u) -> Hashtbl.hash (12, u.id)
  | Shave_const (w, u) -> Hashtbl.hash (13, Int64.bits_of_float w, u.id)

let shape_equal : type a b. a shape -> b shape -> bool =
 fun s1 s2 ->
  match (s1, s2) with
  | Select (f1, u1), Select (f2, u2) -> obj_eq f1 f2 && u1.id = u2.id
  | Where (p1, u1), Where (p2, u2) -> obj_eq p1 p2 && u1.id = u2.id
  | Select_many (f1, u1), Select_many (f2, u2) -> obj_eq f1 f2 && u1.id = u2.id
  | Select_many_list (f1, u1), Select_many_list (f2, u2) ->
      obj_eq f1 f2 && u1.id = u2.id
  | Concat (a1, b1), Concat (a2, b2) -> a1.id = a2.id && b1.id = b2.id
  | Except (a1, b1), Except (a2, b2) -> a1.id = a2.id && b1.id = b2.id
  | Union (a1, b1), Union (a2, b2) -> a1.id = a2.id && b1.id = b2.id
  | Intersect (a1, b1), Intersect (a2, b2) -> a1.id = a2.id && b1.id = b2.id
  | Join (kl1, kr1, r1, a1, b1), Join (kl2, kr2, r2, a2, b2) ->
      obj_eq kl1 kl2 && obj_eq kr1 kr2 && obj_eq r1 r2 && a1.id = a2.id
      && b1.id = b2.id
  | Group_by (k1, r1, u1), Group_by (k2, r2, u2) ->
      obj_eq k1 k2 && obj_eq r1 r2 && u1.id = u2.id
  | Distinct (b1, u1), Distinct (b2, u2) -> b1 = b2 && u1.id = u2.id
  | Shave (f1, u1), Shave (f2, u2) -> obj_eq f1 f2 && u1.id = u2.id
  | Shave_const (w1, u1), Shave_const (w2, u2) ->
      Int64.bits_of_float w1 = Int64.bits_of_float w2 && u1.id = u2.id
  | _ -> false

let table : (int, ex list ref) Hashtbl.t = Hashtbl.create 256
let cons_hits = ref 0
let cons_nodes = ref 0

let bump_children : type a. a shape -> unit = function
  | Source _ -> ()
  | Select (_, u) -> u.consumers <- u.consumers + 1
  | Where (_, u) -> u.consumers <- u.consumers + 1
  | Select_many (_, u) -> u.consumers <- u.consumers + 1
  | Select_many_list (_, u) -> u.consumers <- u.consumers + 1
  | Group_by (_, _, u) -> u.consumers <- u.consumers + 1
  | Distinct (_, u) -> u.consumers <- u.consumers + 1
  | Shave (_, u) -> u.consumers <- u.consumers + 1
  | Shave_const (_, u) -> u.consumers <- u.consumers + 1
  | Concat (a, b) ->
      a.consumers <- a.consumers + 1;
      b.consumers <- b.consumers + 1
  | Except (a, b) ->
      a.consumers <- a.consumers + 1;
      b.consumers <- b.consumers + 1
  | Union (a, b) ->
      a.consumers <- a.consumers + 1;
      b.consumers <- b.consumers + 1
  | Intersect (a, b) ->
      a.consumers <- a.consumers + 1;
      b.consumers <- b.consumers + 1
  | Join (_, _, _, a, b) ->
      a.consumers <- a.consumers + 1;
      b.consumers <- b.consumers + 1

(* On a table hit the stored node is returned at the caller's type via
   [Obj.magic].  Soundness: [shape_equal] demands the same operator, the
   same children (physically — ids come from one counter) and the same
   closures (physically).  The node's record type is determined by its
   children's types and its closures' types, so a physically identical
   shape has the same type; the only loophole is a closure polymorphic in
   its *result* used at two types, and such a function can never produce
   a value witnessing either type (it can only raise or produce values —
   like [[]] — that inhabit both), so no ill-typed record is ever
   materialized. *)
let cons0 : type a. a shape -> a t =
 fun shape ->
  let h = shape_hash shape in
  let bucket =
    match Hashtbl.find_opt table h with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add table h b;
        b
  in
  match List.find_opt (fun (Ex n) -> shape_equal n.shape shape) !bucket with
  | Some (Ex n) ->
      incr cons_hits;
      (Obj.magic (n : _ t) : a t)
  | None ->
      incr counter;
      incr cons_nodes;
      let n = { id = !counter; tid = Type.Id.make (); shape; consumers = 0 } in
      bump_children shape;
      bucket := Ex n :: !bucket;
      n

let cons shape = locked (fun () -> cons0 shape)

(* Sources are deliberately NOT hash-consed: a source leaf is a binding
   point, and two analyses that must not share an input (the unshared
   baseline in the bench, independent tenants) express that by creating
   fresh leaves.  Callers that want cross-fit sharing hold on to one
   source value (e.g. Workflow keeps a single module-level leaf), and
   every pipeline over it then interns to the same DAG. *)
let source ?(name = "source") () =
  locked (fun () ->
      incr counter;
      incr cons_nodes;
      { id = !counter; tid = Type.Id.make (); shape = Source name; consumers = 0 })

let select f c = cons (Select (f, c))
let where p c = cons (Where (p, c))
let select_many f c = cons (Select_many (f, c))
let select_many_list f c = cons (Select_many_list (f, c))
let concat a b = cons (Concat (a, b))
let except a b = cons (Except (a, b))
let union a b = cons (Union (a, b))
let intersect a b = cons (Intersect (a, b))
let join ~kl ~kr ~reduce a b = cons (Join (kl, kr, reduce, a, b))
let group_by ~key ~reduce c = cons (Group_by (key, reduce, c))
let distinct ?bound c = cons (Distinct (bound, c))
let shave f c = cons (Shave (f, c))
let shave_const w c = cons (Shave_const (w, c))
let id c = c.id
let consumers c = c.consumers
let hashcons_stats () = locked (fun () -> (!cons_hits, !cons_nodes))

let is_source (type a) (c : a t) =
  match c.shape with Source _ -> true | _ -> false

let operator (type a) (c : a t) =
  match c.shape with
  | Source _ -> "source"
  | Select _ -> "select"
  | Where _ -> "where"
  | Select_many _ -> "select_many"
  | Select_many_list _ -> "select_many_list"
  | Concat _ -> "concat"
  | Except _ -> "except"
  | Union _ -> "union"
  | Intersect _ -> "intersect"
  | Join _ -> "join"
  | Group_by _ -> "group_by"
  | Distinct _ -> "distinct"
  | Shave _ -> "shave"
  | Shave_const _ -> "shave_const"

let children : type a. a t -> ex list =
 fun c ->
  match c.shape with
  | Source _ -> []
  | Select (_, u) -> [ Ex u ]
  | Where (_, u) -> [ Ex u ]
  | Select_many (_, u) -> [ Ex u ]
  | Select_many_list (_, u) -> [ Ex u ]
  | Group_by (_, _, u) -> [ Ex u ]
  | Distinct (_, u) -> [ Ex u ]
  | Shave (_, u) -> [ Ex u ]
  | Shave_const (_, u) -> [ Ex u ]
  | Concat (a, b) -> [ Ex a; Ex b ]
  | Except (a, b) -> [ Ex a; Ex b ]
  | Union (a, b) -> [ Ex a; Ex b ]
  | Intersect (a, b) -> [ Ex a; Ex b ]
  | Join (_, _, _, a, b) -> [ Ex a; Ex b ]

let scalar_label : type a. a t -> string =
 fun c ->
  match c.shape with
  | Source name -> Printf.sprintf " %S" name
  | Distinct (Some b, _) -> Printf.sprintf " ~bound:%g" b
  | Shave_const (w, _) -> Printf.sprintf " %g" w
  | _ -> ""

(* ---------- Source uses (memoized per node, globally) ---------- *)

(* Source uses with path multiplicity: the count of root-to-leaf paths,
   which is exactly the multiplier sequential composition applies to
   epsilon (and what Batch.merge_uses computes operationally).  Nodes are
   immutable and interned, so the counts are cached once per node id for
   the life of the process: a 40-deep diamond ladder (2^40 paths) costs
   41 table lookups, not 2^40 walks. *)

type src_counts = (int * string * int) list (* source id, name, count *)

let merge_counts (a : src_counts) (b : src_counts) : src_counts =
  List.fold_left
    (fun acc (sid, name, n) ->
      let rec bump = function
        | [] -> [ (sid, name, n) ]
        | (sid', name', n') :: rest when sid' = sid -> (sid', name', n' + n) :: rest
        | entry :: rest -> entry :: bump rest
      in
      bump acc)
    a b

let counts_cache : (int, src_counts) Hashtbl.t = Hashtbl.create 256

let counts_of0 (root : 'a t) : src_counts =
  let rec go : type x. x t -> src_counts =
   fun c ->
    match Hashtbl.find_opt counts_cache c.id with
    | Some counts -> counts
    | None ->
        let counts : src_counts =
          match c.shape with
          | Source name -> [ (c.id, name, 1) ]
          | Select (_, u) -> go u
          | Where (_, u) -> go u
          | Select_many (_, u) -> go u
          | Select_many_list (_, u) -> go u
          | Concat (a, b) -> merge_counts (go a) (go b)
          | Except (a, b) -> merge_counts (go a) (go b)
          | Union (a, b) -> merge_counts (go a) (go b)
          | Intersect (a, b) -> merge_counts (go a) (go b)
          | Join (_, _, _, a, b) -> merge_counts (go a) (go b)
          | Group_by (_, _, u) -> go u
          | Distinct (_, u) -> go u
          | Shave (_, u) -> go u
          | Shave_const (_, u) -> go u
        in
        Hashtbl.replace counts_cache c.id counts;
        counts
  in
  go root

let counts_of root = locked (fun () -> counts_of0 root)
let uses c = List.fold_left (fun acc (_, _, n) -> acc + n) 0 (counts_of c)
let source_uses c = List.map (fun (_, name, n) -> (name, n)) (counts_of c)

let size (root : 'a t) =
  let seen = Hashtbl.create 16 in
  let rec go : ex -> unit =
   fun (Ex c) ->
    if not (Hashtbl.mem seen c.id) then begin
      Hashtbl.add seen c.id ();
      List.iter go (children c)
    end
  in
  go (Ex root);
  Hashtbl.length seen

(* ---------- Canonical structural hash ---------- *)

(* A digest of the plan's *shape*: operators, scalar parameters, source
   names and wiring — everything except the embedded closures, which have
   no canonical representation.  Two structurally equal plans share a
   hash even when their closures differ, so users of the hash as a cache
   key must double-check node identity (the optimizer's plan cache does).
   Checkpoints record the hash of each optimized plan so a resume can
   verify it re-lowered the very same dataflow before continuing. *)

let hash_cache : (int, string) Hashtbl.t = Hashtbl.create 256

let canonical_hash0 root =
  let rec go : type x. x t -> string =
   fun c ->
    match Hashtbl.find_opt hash_cache c.id with
    | Some d -> d
    | None ->
        let payload =
          match c.shape with
          | Source name -> "source:" ^ name
          | Distinct (bound, u) ->
              Printf.sprintf "distinct:%s:%s"
                (match bound with
                | None -> "-"
                | Some b -> Int64.to_string (Int64.bits_of_float b))
                (go u)
          | Shave_const (w, u) ->
              Printf.sprintf "shave_const:%Ld:%s" (Int64.bits_of_float w) (go u)
          | _ ->
              String.concat ":"
                (operator c :: List.map (fun (Ex u) -> go u) (children c))
        in
        let d = Digest.string payload in
        Hashtbl.replace hash_cache c.id d;
        d
  in
  Digest.to_hex (go root)

let canonical_hash root = locked (fun () -> canonical_hash0 root)

(* ---------- Pretty-printing and Graphviz export ---------- *)

(* Deduplicated postorder: leaves first, each node once, root last. *)
let topo (root : 'a t) : ex list =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec go : ex -> unit =
   fun (Ex c) ->
    if not (Hashtbl.mem seen c.id) then begin
      Hashtbl.add seen c.id ();
      List.iter go (children c);
      out := Ex c :: !out
    end
  in
  go (Ex root);
  List.rev !out

let pp fmt root =
  let nodes = topo root in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (Ex c) ->
      if i > 0 then Format.fprintf fmt "@,";
      let kids = children c in
      Format.fprintf fmt "#%d %s%s" c.id (operator c) (scalar_label c);
      if kids <> [] then
        Format.fprintf fmt " <-%s"
          (String.concat ""
             (List.map (fun (Ex u) -> Printf.sprintf " #%d" u.id) kids)))
    nodes;
  Format.fprintf fmt "@]"

(* Root-to-node path counts, top-down: the label on an edge parent<-child
   is the number of root-to-parent paths — the multiplicity that edge
   contributes to the child's epsilon multiplier (summing edge labels
   into a source leaf gives exactly its [source_uses] entry). *)
let path_counts (root : 'a t) : (int, int) Hashtbl.t =
  let paths = Hashtbl.create 16 in
  Hashtbl.replace paths root.id 1;
  (* Reverse postorder = parents before children, so each node's own
     count is final before it is pushed into its children. *)
  List.iter
    (fun (Ex c) ->
      let mine = try Hashtbl.find paths c.id with Not_found -> 0 in
      List.iter
        (fun (Ex u) ->
          let cur = try Hashtbl.find paths u.id with Not_found -> 0 in
          Hashtbl.replace paths u.id (cur + mine))
        (children c))
    (List.rev (topo root));
  paths

let to_dot ?(label = "plan") root =
  let buf = Buffer.create 1024 in
  let paths = path_counts root in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" label);
  Buffer.add_string buf "  rankdir=BT;\n  node [fontname=\"monospace\"];\n";
  let nodes = topo root in
  List.iter
    (fun (Ex c) ->
      let shape = if is_source c then ", shape=box" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"#%d %s%s\"%s];\n" c.id c.id (operator c)
           (String.map (fun ch -> if ch = '"' then '\'' else ch) (scalar_label c))
           shape))
    nodes;
  List.iter
    (fun (Ex c) ->
      let mine = try Hashtbl.find paths c.id with Not_found -> 0 in
      List.iter
        (fun (Ex u) ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=\"x%d\"];\n" u.id c.id mine))
        (children c))
    nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---------- Cardinality estimates ---------- *)

(* A deterministic, structure-only fan-out estimate used to order join
   operands.  The absolute numbers are meaningless; only comparisons
   between sibling subplans matter, and ties never reorder. *)
let est_cache : (int, float) Hashtbl.t = Hashtbl.create 256

let estimate0 root =
  let rec go : type x. x t -> float =
   fun c ->
    match Hashtbl.find_opt est_cache c.id with
    | Some e -> e
    | None ->
        let e =
          match c.shape with
          | Source _ -> 1024.0
          | Select (_, u) -> go u
          | Where (_, u) -> go u /. 2.0
          | Select_many (_, u) -> go u *. 2.0
          | Select_many_list (_, u) -> go u *. 2.0
          | Concat (a, b) -> go a +. go b
          | Union (a, b) -> go a +. go b
          | Intersect (a, b) -> Float.min (go a) (go b)
          | Except (a, _) -> go a
          | Join (_, _, _, a, b) -> go a *. go b /. 16.0
          | Group_by (_, _, u) -> go u /. 2.0
          | Distinct (_, u) -> go u
          | Shave (_, u) -> go u *. 2.0
          | Shave_const (_, u) -> go u *. 2.0
        in
        Hashtbl.replace est_cache c.id e;
        e
  in
  go root

let estimated_size root = locked (fun () -> estimate0 root)

(* ---------- The optimizer ---------- *)

type rule =
  | Fuse_where
  | Push_where_below_select
  | Fuse_distinct
  | Reorder_join
  | Fuse_select
  | Fuse_select_into_join

let rule_name = function
  | Fuse_where -> "fuse_where"
  | Push_where_below_select -> "push_where_below_select"
  | Fuse_distinct -> "fuse_distinct"
  | Reorder_join -> "reorder_join"
  | Fuse_select -> "fuse_select"
  | Fuse_select_into_join -> "fuse_select_into_join"

(* Every rule preserves released measurements bit for bit: weights are
   grid ints summed exactly, so a rewrite that moves or fuses a filter,
   combines distinct bounds, commutes a join's operands (IEEE [*.] and the
   norms' int sum commute) or collapses two selects (or a select into a
   join's reduce) into one accumulation computes the same ints. *)
let rules =
  [ Fuse_where; Push_where_below_select; Fuse_distinct; Reorder_join; Fuse_select; Fuse_select_into_join ]

let fires : (rule, int) Hashtbl.t = Hashtbl.create 8

let optimizer_fires () =
  locked (fun () ->
      List.filter_map (fun r -> Option.map (fun n -> (rule_name r, n)) (Hashtbl.find_opt fires r)) rules)

(* The plan cache: canonical hash -> optimized root.
   Because the canonical hash ignores closures, each entry also records
   the root id it was computed for and only matches on both — a
   hash-equal plan with different closures re-optimizes and gets its own
   entry. *)
let plan_cache : (string, (int * ex) list ref) Hashtbl.t = Hashtbl.create 64
let cache_hits = ref 0
let cache_misses = ref 0
let plan_cache_stats () = locked (fun () -> (!cache_hits, !cache_misses))

let optimize (root : 'a t) : 'a t =
  locked @@ fun () ->
  let key = canonical_hash0 root in
  let entries =
    match Hashtbl.find_opt plan_cache key with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add plan_cache key l;
        l
  in
  match List.assoc_opt root.id !entries with
  | Some (Ex n) ->
      incr cache_hits;
      (Obj.magic (n : _ t) : 'a t)
  | None ->
      incr cache_misses;
      let fire r = Hashtbl.replace fires r (1 + Option.value ~default:0 (Hashtbl.find_opt fires r)) in
      (* Consumer counts are snapshotted before any rewriting: interning
         rewritten parents bumps the live counters, and cost guards must
         judge sharing as it stood in the submitted plan.  [refof] maps
         an optimized node back to its original's snapshot; nodes minted
         by the rewrites themselves fall through to the live counter. *)
      let snap : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let rec presnap : ex -> unit =
       fun (Ex c) ->
        if not (Hashtbl.mem snap c.id) then begin
          Hashtbl.add snap c.id c.consumers;
          List.iter presnap (children c)
        end
      in
      presnap (Ex root);
      let refmap : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let refof : type x. x t -> int =
       fun c ->
        match Hashtbl.find_opt snap c.id with
        | Some n -> n
        | None -> (
            match Hashtbl.find_opt refmap c.id with
            | Some n -> n
            | None -> c.consumers)
      in
      let memo : (int, ex) Hashtbl.t = Hashtbl.create 64 in
      let rec opt : type x. x t -> x t =
       fun c ->
        match Hashtbl.find_opt memo c.id with
        | Some (Ex n) -> (Obj.magic (n : _ t) : x t)
        | None ->
            let c' = rebuild c in
            let c'' = rewrite c' in
            Hashtbl.replace memo c.id (Ex c'');
            Hashtbl.replace memo c''.id (Ex c'');
            c''
      and rebuild : type x. x t -> x t =
       fun c ->
        let remap : type y. y t -> y t -> y t =
         fun u u' ->
          if u' != u then
            Hashtbl.replace refmap u'.id
              (max
                 (Option.value ~default:0 (Hashtbl.find_opt refmap u'.id))
                 (refof u));
          u'
        in
        match c.shape with
        | Source _ -> c
        | Select (f, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Select (f, u'))
        | Where (p, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Where (p, u'))
        | Select_many (f, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Select_many (f, u'))
        | Select_many_list (f, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Select_many_list (f, u'))
        | Group_by (k, r, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Group_by (k, r, u'))
        | Distinct (b, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Distinct (b, u'))
        | Shave (f, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Shave (f, u'))
        | Shave_const (w, u) ->
            let u' = remap u (opt u) in
            if u' == u then c else cons0 (Shave_const (w, u'))
        | Concat (a, b) ->
            let a' = remap a (opt a) and b' = remap b (opt b) in
            if a' == a && b' == b then c else cons0 (Concat (a', b'))
        | Except (a, b) ->
            let a' = remap a (opt a) and b' = remap b (opt b) in
            if a' == a && b' == b then c else cons0 (Except (a', b'))
        | Union (a, b) ->
            let a' = remap a (opt a) and b' = remap b (opt b) in
            if a' == a && b' == b then c else cons0 (Union (a', b'))
        | Intersect (a, b) ->
            let a' = remap a (opt a) and b' = remap b (opt b) in
            if a' == a && b' == b then c else cons0 (Intersect (a', b'))
        | Join (kl, kr, r, a, b) ->
            let a' = remap a (opt a) and b' = remap b (opt b) in
            if a' == a && b' == b then c else cons0 (Join (kl, kr, r, a', b'))
      and rewrite : type x. x t -> x t =
       fun c ->
        match c.shape with
        | Where (p, inner) -> (
            match inner.shape with
            | Where (q, u) when refof inner <= 1 ->
                fire Fuse_where;
                rewrite (cons0 (Where ((fun x -> q x && p x), u)))
            | Select (f, u) when refof inner <= 1 ->
                fire Push_where_below_select;
                let pushed = rewrite (cons0 (Where ((fun x -> p (f x)), u))) in
                rewrite (cons0 (Select (f, pushed)))
            | _ -> c)
        | Distinct (b1, inner) -> (
            match inner.shape with
            | Distinct (b2, u) when refof inner <= 1 ->
                fire Fuse_distinct;
                let v = Option.value ~default:1.0 in
                rewrite (cons0 (Distinct (Some (Float.min (v b1) (v b2)), u)))
            | _ -> c)
        | Select (f, inner) -> (
            match inner.shape with
            | Select (g, u) when refof inner <= 1 ->
                fire Fuse_select;
                rewrite (cons0 (Select ((fun x -> f (g x)), u)))
            | Join (kl, kr, r, a, b)
              when refof inner <= 1 ->
                fire Fuse_select_into_join;
                rewrite (cons0 (Join (kl, kr, (fun x y -> f (r x y)), a, b)))
            | _ -> c)
        | Join (kl, kr, r, a, b)
          when estimate0 b < estimate0 a ->
            fire Reorder_join;
            rewrite (cons0 (Join (kr, kl, (fun y x -> r x y), b, a)))
        | _ -> c
      in
      let optimized = opt root in
      entries := (root.id, Ex optimized) :: !entries;
      optimized

(* ---------- Lowering ---------- *)

module type LOWERING = sig
  type 'a target
  type ctx

  val create : unit -> ctx
  val bind : ctx -> 'a t -> 'a target -> unit
  val lower : ctx -> 'a t -> 'a target
  val nodes_built : ctx -> int
  val nodes_shared : ctx -> int
end

module Lower (L : Lang.S) = struct
  type 'a target = 'a L.t

  (* Heterogeneous entries: the node's runtime type witness lets us
     recover the lowered value at its original type on memo hits, without
     any unsafe casts. *)
  type entry = E : 'x Type.Id.t * 'x L.t -> entry

  type ctx = {
    bindings : (int, entry) Hashtbl.t; (* source node id -> bound input *)
    memo : (int, entry) Hashtbl.t; (* node id -> lowered value *)
    mutable built : int;
    mutable shared : int;
  }

  let create () =
    { bindings = Hashtbl.create 16; memo = Hashtbl.create 64; built = 0; shared = 0 }

  let recover : type a. a Type.Id.t -> entry -> a L.t =
   fun tid (E (tid', v)) ->
    match Type.Id.provably_equal tid' tid with
    | Some Type.Equal -> v
    | None -> assert false (* ids are unique, so witnesses always match *)

  let bind ctx (c : 'a t) (v : 'a L.t) =
    (match c.shape with
    | Source _ -> ()
    | _ ->
        invalid_arg
          (Printf.sprintf "Plan.bind: node #%d (%s) is not a source" c.id (operator c)));
    if Hashtbl.length ctx.memo > 0 then
      invalid_arg
        (Printf.sprintf
           "Plan.bind: source #%d bound after lowering began — already-lowered \
            nodes would keep reading the old binding; bind every source before \
            the first lower"
           c.id);
    Hashtbl.replace ctx.bindings c.id (E (c.tid, v))

  let lower ctx root =
    let rec go : type x. x t -> x L.t =
     fun c ->
      match Hashtbl.find_opt ctx.memo c.id with
      | Some entry ->
          ctx.shared <- ctx.shared + 1;
          recover c.tid entry
      | None ->
          let v : x L.t =
            match c.shape with
            | Source name -> (
                match Hashtbl.find_opt ctx.bindings c.id with
                | Some entry -> recover c.tid entry
                | None ->
                    invalid_arg
                      (Printf.sprintf "Plan.lower: unbound source #%d (%s)" c.id name))
            | Select (f, u) -> L.select f (go u)
            | Where (p, u) -> L.where p (go u)
            | Select_many (f, u) -> L.select_many f (go u)
            | Select_many_list (f, u) -> L.select_many_list f (go u)
            | Concat (a, b) -> L.concat (go a) (go b)
            | Except (a, b) -> L.except (go a) (go b)
            | Union (a, b) -> L.union (go a) (go b)
            | Intersect (a, b) -> L.intersect (go a) (go b)
            | Join (kl, kr, reduce, a, b) -> L.join ~kl ~kr ~reduce (go a) (go b)
            | Group_by (key, reduce, u) -> L.group_by ~key ~reduce (go u)
            | Distinct (bound, u) -> L.distinct ?bound (go u)
            | Shave (f, u) -> L.shave f (go u)
            | Shave_const (w, u) -> L.shave_const w (go u)
          in
          ctx.built <- ctx.built + 1;
          Hashtbl.replace ctx.memo c.id (E (c.tid, v));
          v
    in
    go root

  let nodes_built ctx = ctx.built
  let nodes_shared ctx = ctx.shared
end
