(* The optimizer's contract, property-tested: over random well-typed
   plans, rewriting preserves the privacy bookkeeping ({!Plan.uses} and
   {!Plan.source_uses}) exactly, is idempotent, and preserves released
   measurement values bit for bit.  Plus
   hand-built instances of each rule, the cost guard that refuses to
   split shared subtrees, the canonical plan cache, and the end-to-end
   shared-fit equivalence of optimized vs unoptimized pipelines. *)

module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Prng = Wpinq_prng.Prng
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Plan = Wpinq_core.Plan
module M = Wpinq_core.Measurement
module Dataflow = Wpinq_dataflow.Dataflow
module Fit = Wpinq_infer.Fit
module Qp = Wpinq_queries.Queries.Make (Plan)
module Qb = Wpinq_queries.Queries.Make (Batch)

(* ---------- a generator of random well-typed plans ----------

   Plans are described by a first-order AST over [(int * int)] records;
   [build] interprets a description against a source leaf, drawing every
   embedded closure from the module-level pools below.  Pool closures are
   allocated once, so building the same description twice constructs
   physically equal nodes — which is exactly what hash-consing promises
   to dedup. *)

type desc =
  | Dsrc
  | Dselect of int * desc
  | Dwhere of int * desc
  | Dselect_many of int * desc
  | Ddistinct of int * desc
  | Dshave of int * desc
  | Dgroup of int * desc
  | Dconcat of desc * desc
  | Dunion of desc * desc
  | Dintersect of desc * desc
  | Dexcept of desc * desc
  | Djoin of int * int * int * desc * desc

let selects =
  [|
    (fun (a, b) -> (a + 1, b));
    (fun (a, b) -> (b, a));
    (fun (a, _) -> (a, 0));
    (fun (a, b) -> (a land 7, b land 7));
  |]

let preds =
  [|
    (fun (a, _) -> a mod 2 = 0);
    (fun (a, b) -> a < b);
    (fun (_, b) -> b mod 3 <> 0);
  |]

let emitters =
  [|
    (fun (a, b) -> [ ((a, b), 0.5); ((b, a), 0.5) ]);
    (fun (a, b) -> if a mod 2 = 0 then [ ((a, b), 1.0) ] else []);
  |]

let bounds = [| 0.5; 1.0; 2.0 |]
let shave_cuts = [| 0.25; 0.75 |]
let shave_back ((a, b), i) = (a + i, b)
let keys = [| (fun (a, _) -> a mod 4); (fun (_, b) -> b mod 4); (fun (a, b) -> (a + b) mod 4) |]
let group_len l = List.length l
let group_back (k, n) = (k, n)
let reduces = [| (fun (a, _) (c, _) -> (a, c)); (fun (_, b) (_, d) -> (b, d)) |]

let rec build src = function
  | Dsrc -> src
  | Dselect (i, d) -> Plan.select selects.(i) (build src d)
  | Dwhere (i, d) -> Plan.where preds.(i) (build src d)
  | Dselect_many (i, d) -> Plan.select_many emitters.(i) (build src d)
  | Ddistinct (i, d) -> Plan.distinct ~bound:bounds.(i) (build src d)
  | Dshave (i, d) -> Plan.select shave_back (Plan.shave_const shave_cuts.(i) (build src d))
  | Dgroup (i, d) ->
      Plan.select group_back (Plan.group_by ~key:keys.(i) ~reduce:group_len (build src d))
  | Dconcat (a, b) -> Plan.concat (build src a) (build src b)
  | Dunion (a, b) -> Plan.union (build src a) (build src b)
  | Dintersect (a, b) -> Plan.intersect (build src a) (build src b)
  | Dexcept (a, b) -> Plan.except (build src a) (build src b)
  | Djoin (kl, kr, r, a, b) ->
      Plan.join ~kl:keys.(kl) ~kr:keys.(kr) ~reduce:reduces.(r) (build src a) (build src b)

let desc_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then return Dsrc
         else
           let sub = self (n / 2) in
           frequency
             [
               (1, return Dsrc);
               (4, map2 (fun i d -> Dselect (i, d)) (int_bound 3) sub);
               (4, map2 (fun i d -> Dwhere (i, d)) (int_bound 2) sub);
               (2, map2 (fun i d -> Dselect_many (i, d)) (int_bound 1) sub);
               (2, map2 (fun i d -> Ddistinct (i, d)) (int_bound 2) sub);
               (1, map2 (fun i d -> Dshave (i, d)) (int_bound 1) sub);
               (1, map2 (fun i d -> Dgroup (i, d)) (int_bound 2) sub);
               (2, map2 (fun a b -> Dconcat (a, b)) sub sub);
               (2, map2 (fun a b -> Dunion (a, b)) sub sub);
               (1, map2 (fun a b -> Dintersect (a, b)) sub sub);
               (1, map2 (fun a b -> Dexcept (a, b)) sub sub);
               ( 2,
                 map2
                   (fun (kl, kr, r) (a, b) -> Djoin (kl, kr, r, a, b))
                   (triple (int_bound 2) (int_bound 2) (int_bound 1))
                   (pair sub sub) );
             ])

let rec desc_show = function
  | Dsrc -> "src"
  | Dselect (i, d) -> Printf.sprintf "select#%d(%s)" i (desc_show d)
  | Dwhere (i, d) -> Printf.sprintf "where#%d(%s)" i (desc_show d)
  | Dselect_many (i, d) -> Printf.sprintf "select_many#%d(%s)" i (desc_show d)
  | Ddistinct (i, d) -> Printf.sprintf "distinct#%d(%s)" i (desc_show d)
  | Dshave (i, d) -> Printf.sprintf "shave#%d(%s)" i (desc_show d)
  | Dgroup (i, d) -> Printf.sprintf "group#%d(%s)" i (desc_show d)
  | Dconcat (a, b) -> Printf.sprintf "concat(%s, %s)" (desc_show a) (desc_show b)
  | Dunion (a, b) -> Printf.sprintf "union(%s, %s)" (desc_show a) (desc_show b)
  | Dintersect (a, b) -> Printf.sprintf "intersect(%s, %s)" (desc_show a) (desc_show b)
  | Dexcept (a, b) -> Printf.sprintf "except(%s, %s)" (desc_show a) (desc_show b)
  | Djoin (kl, kr, r, a, b) ->
      Printf.sprintf "join#%d%d%d(%s, %s)" kl kr r (desc_show a) (desc_show b)

let desc_arb = QCheck.make ~print:desc_show desc_gen

let prop ?(count = 150) name p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name desc_arb p)

(* A fixed public record set every evaluation property lowers against. *)
let records =
  List.init 24 (fun i -> (((i * 7) mod 12, (i * 5) mod 9), 0.25 +. (0.25 *. float (i mod 4))))

(* Lower [p] over [records] and release a noisy count at a fixed seed:
   the (bit-level) observable an analyst actually receives. *)
let release p =
  let src : (int * int) Plan.t = Plan.source ~name:"xs" () in
  let ctx = Batch.Plans.create () in
  Batch.Plans.bind ctx src (Batch.public records);
  let m =
    Batch.noisy_count ~rng:(Prng.create 5) ~epsilon:1.0
      (Batch.Plans.lower ctx (build src p))
  in
  List.sort compare (M.observed m)

let bits obs = List.map (fun (x, v) -> (x, Int64.bits_of_float v)) obs

let property_suite =
  [
    prop "hash-consing: building twice yields the same node" (fun d ->
        let src : (int * int) Plan.t = Plan.source () in
        Plan.id (build src d) = Plan.id (build src d));
    prop "optimize preserves uses and source_uses" (fun d ->
        let src : (int * int) Plan.t = Plan.source () in
        let p = build src d in
        let o = Plan.optimize p in
        Plan.uses o = Plan.uses p
        && List.sort compare (Plan.source_uses o) = List.sort compare (Plan.source_uses p));
    prop "optimize is idempotent" (fun d ->
        let src : (int * int) Plan.t = Plan.source () in
        let o = Plan.optimize (build src d) in
        Plan.id (Plan.optimize o) = Plan.id o);
    prop ~count:80 "optimize preserves released bits" (fun d ->
        bits (release d)
        = bits
            (let src : (int * int) Plan.t = Plan.source ~name:"xs" () in
             let ctx = Batch.Plans.create () in
             Batch.Plans.bind ctx src (Batch.public records);
             let m =
               Batch.noisy_count ~rng:(Prng.create 5) ~epsilon:1.0
                 (Batch.Plans.lower ctx (Plan.optimize (build src d)))
             in
             List.sort compare (M.observed m)));
  ]

(* ---------- each rule, on a hand-built instance ---------- *)

let src () : (int * int) Plan.t = Plan.source ~name:"xs" ()

let test_fuse_where () =
  let s = src () in
  let p = Plan.where preds.(0) (Plan.where preds.(1) s) in
  let o = Plan.optimize p in
  Alcotest.(check string) "root stays a filter" "where" (Plan.operator o);
  Alcotest.(check int) "two filters became one" 2 (Plan.size o);
  Alcotest.(check int) "uses unchanged" (Plan.uses p) (Plan.uses o)

let test_push_where_below_select () =
  let s = src () in
  let p = Plan.where preds.(0) (Plan.select selects.(0) s) in
  let o = Plan.optimize p in
  Alcotest.(check string) "projection floats to the root" "select" (Plan.operator o);
  Alcotest.(check int) "same node count" (Plan.size p) (Plan.size o)

let test_fuse_distinct () =
  let s = src () in
  let p = Plan.distinct ~bound:2.0 (Plan.distinct ~bound:0.5 s) in
  let o = Plan.optimize p in
  Alcotest.(check string) "root stays distinct" "distinct" (Plan.operator o);
  Alcotest.(check int) "two bounds became one" 2 (Plan.size o)

let test_fuse_select () =
  let s = src () in
  let p = Plan.select selects.(0) (Plan.select selects.(1) s) in
  let o = Plan.optimize p in
  Alcotest.(check string) "root stays a projection" "select" (Plan.operator o);
  Alcotest.(check int) "two projections became one" 2 (Plan.size o)

let test_reorder_join () =
  let s = src () in
  (* A select_many fans out (bigger estimate); a where filters (smaller).
     Optimizing the badly-ordered join must land on the same canonical
     shape as writing the join well-ordered by hand — closures are not
     hashed, so shape equality is exactly [canonical_hash] equality. *)
  let big = Plan.select_many emitters.(0) s in
  let small = Plan.where preds.(0) s in
  let bad = Plan.join ~kl:keys.(0) ~kr:keys.(1) ~reduce:reduces.(0) big small in
  let good = Plan.join ~kl:keys.(1) ~kr:keys.(0) ~reduce:reduces.(1) small big in
  Alcotest.(check string) "join reordered to the canonical shape"
    (Plan.canonical_hash good)
    (Plan.canonical_hash (Plan.optimize bad));
  Alcotest.(check int) "well-ordered join is a fixpoint" (Plan.id good)
    (Plan.id (Plan.optimize good))

let test_cost_guard_on_shared_subtree () =
  let s = src () in
  (* The inner filter chain is consumed twice; fusing it under the outer
     where would have to duplicate it for the other consumer.  The guard
     must refuse, leaving the plan's shape untouched. *)
  let inner = Plan.where preds.(1) s in
  let p = Plan.union (Plan.where preds.(0) inner) inner in
  Alcotest.(check string) "shared filter not split"
    (Plan.canonical_hash p)
    (Plan.canonical_hash (Plan.optimize p))

let test_plan_cache () =
  let s = src () in
  (* A shape unlikely to be in the cache already. *)
  let p =
    Plan.distinct ~bound:1.25
      (Plan.where preds.(2)
         (Plan.select selects.(3) (Plan.where preds.(0) (Plan.select selects.(2) s))))
  in
  let _, m0 = Plan.plan_cache_stats () in
  let o1 = Plan.optimize p in
  let h1, m1 = Plan.plan_cache_stats () in
  Alcotest.(check bool) "first optimize misses" true (m1 > m0);
  let o2 = Plan.optimize p in
  let h2, _ = Plan.plan_cache_stats () in
  Alcotest.(check bool) "second optimize hits" true (h2 > h1);
  Alcotest.(check int) "cache returns the same DAG" (Plan.id o1) (Plan.id o2)

(* ---------- end-to-end: the Section-3 corpus ---------- *)

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let secret () = Gen.clustered ~n:50 ~community:10 ~p_in:0.7 ~extra:25 (Prng.create 3)

(* Measuring the five analyses through optimized plans must release the
   same bits as measuring through the plans as written. *)
let test_corpus_measurements_identical () =
  let g = secret () in
  let source : (int * int) Plan.t = Plan.source ~name:"sym" () in
  let budget = Budget.create ~name:"edges" 1e9 in
  let ctx = Batch.Plans.create () in
  Batch.Plans.bind ctx source (Batch.source_records ~budget (Graph.directed_edges g));
  let check name p =
    let obs via =
      let m =
        Batch.noisy_count ~rng:(Prng.create 42) ~epsilon:10.0
          (Batch.Plans.lower ctx (via p))
      in
      List.sort compare
        (List.map (fun (x, v) -> (x, Int64.bits_of_float v)) (M.observed m))
    in
    Alcotest.(check bool)
      (name ^ ": released bits identical") true
      (obs (fun q -> q) = obs Plan.optimize)
  in
  check "ccdf" (Qp.degree_ccdf source);
  check "jdd" (Qp.jdd source);
  check "tbd" (Qp.tbd source);
  check "tbi" (Qp.tbi source);
  check "sbi" (Qp.sbi source)

(* Fitting against optimized plans must never disturb what was released:
   the initial energy matches the unoptimized fit bit for bit, and every
   observation recorded at measurement time keeps its exact bits through
   stepping (every rejection exercising a speculation abort), a clean
   audit, and a checkpoint-style rebase — the same path a resume takes.
   The walks themselves are NOT compared step by step: a rewired join
   regroups incremental accumulation, and a proposal whose energy delta
   sits within ulps of zero then consumes a different number of PRNG
   draws, legitimately forking the chains (which is why checkpoints pin
   the canonical plan hashes instead of assuming walk equality). *)
type via = { via : 'a. 'a Plan.t -> 'a Plan.t }

let test_shared_fit_equivalence () =
  let g = secret () in
  let seed = Rewire.randomize g (Prng.create 4) in
  let budget = Budget.create ~name:"edges" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges g) in
  let rng = Prng.create 42 in
  let mc = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.degree_ccdf sym) in
  let mj = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.jdd sym) in
  let mt = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.tbd sym) in
  let snap m =
    List.sort compare
      (List.map (fun (x, v) -> (x, Int64.bits_of_float v)) (M.observed m))
  in
  let setup { via } =
    let source = Plan.source ~name:"sym" () in
    let cc, cj, ct = (M.copy mc, M.copy mj, M.copy mt) in
    let measured =
      [
        Fit.Measured (via (Qp.degree_ccdf source), cc);
        Fit.Measured (via (Qp.jdd source), cj);
        Fit.Measured (via (Qp.tbd source), ct);
      ]
    in
    let fit =
      Fit.create_shared ~rng:(Prng.create 7) ~seed_graph:seed ~source ~measured ()
    in
    let rebase () =
      Fit.rebuild_shared fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source
        ~measured
    in
    (fit, rebase, fun () -> (snap cc, snap cj, snap ct))
  in
  let plain, _, snap_plain = setup { via = (fun p -> p) } in
  let opt, rebase_opt, snap_opt = setup { via = (fun p -> Plan.optimize p) } in
  check_bits "initial energy" (Fit.energy plain) (Fit.energy opt);
  let base_c, base_j, base_t = (snap mc, snap mj, snap mt) in
  let drive fit n = ignore (Fit.run fit ~steps:n ~pow:10_000.0 ()) in
  drive plain 200;
  drive opt 200;
  let clean label fit =
    let r = Fit.audit fit in
    Alcotest.(check int) (label ^ ": audit clean") 0
      (List.length r.Dataflow.Audit.divergences)
  in
  clean "plain" plain;
  clean "optimized" opt;
  (* Rebase the optimized fit in place — deterministic resume path — and
     keep walking. *)
  rebase_opt ();
  drive plain 100;
  drive opt 100;
  clean "optimized post-rebase" opt;
  (* The walk may have observed NEW bins (drawing fresh noise lazily),
     but every bin released at measurement time must keep its exact
     bits in both fits. *)
  let kept label base now =
    List.iter
      (fun (x, v) ->
        match List.assoc_opt x now with
        | Some v' -> Alcotest.(check int64) (label ^ ": released bin kept") v v'
        | None -> Alcotest.fail (label ^ ": a released bin disappeared"))
      base
  in
  let pc, pj, pt = snap_plain () and oc, oj, ot = snap_opt () in
  kept "plain ccdf" base_c pc;
  kept "plain jdd" base_j pj;
  kept "plain tbd" base_t pt;
  kept "optimized ccdf" base_c oc;
  kept "optimized jdd" base_j oj;
  kept "optimized tbd" base_t ot

let suite =
  property_suite
  @ [
      Alcotest.test_case "rule: fuse where" `Quick test_fuse_where;
      Alcotest.test_case "rule: push where below select" `Quick
        test_push_where_below_select;
      Alcotest.test_case "rule: fuse distinct" `Quick test_fuse_distinct;
      Alcotest.test_case "rule: fuse select" `Quick test_fuse_select;
      Alcotest.test_case "rule: reorder join" `Quick test_reorder_join;
      Alcotest.test_case "cost guard: shared subtrees survive" `Quick
        test_cost_guard_on_shared_subtree;
      Alcotest.test_case "plan cache: canonical hits" `Quick test_plan_cache;
      Alcotest.test_case "corpus: optimized measurements identical" `Quick
        test_corpus_measurements_identical;
      Alcotest.test_case "shared fit: optimized = unoptimized" `Slow
        test_shared_fit_equivalence;
    ]
