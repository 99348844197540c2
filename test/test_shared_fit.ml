(* The sharing property test: a multi-target fit over plans lowered through
   ONE shared context must be bit-identical — energies, acceptance decisions,
   final synthetic dataset — to the same fit over unshared per-target
   pipelines, across plain steps (including speculation aborts on rejected
   proposals), a clean audit, and a checkpoint rebase; and the shared
   construction must do measurably less propagation work per step. *)

module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Prng = Wpinq_prng.Prng
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Plan = Wpinq_core.Plan
module Measurement = Wpinq_core.Measurement
module Codec = Wpinq_persist.Persist.Codec
module Fault = Wpinq_persist.Persist.Fault
module Dataflow = Wpinq_dataflow.Dataflow
module Fit = Wpinq_infer.Fit
module Mcmc = Wpinq_infer.Mcmc
module W = Wpinq_infer.Workflow
module Qp = Wpinq_queries.Queries.Make (Plan)
module Qb = Wpinq_queries.Queries.Make (Batch)

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Clone a measurement through its checkpoint serialization, so each fit sees
   identical recorded observations AND the same future noise stream. *)
let clone write read m =
  let buf = Buffer.create 1024 in
  Measurement.save write m buf;
  Measurement.load read (Codec.reader (Buffer.contents buf))

let wr_int = Codec.write_int
let rd_int = Codec.read_int

let wr_pair buf (a, b) =
  wr_int buf a;
  wr_int buf b

let rd_pair r =
  let a = rd_int r in
  let b = rd_int r in
  (a, b)

let wr_triple buf (a, b, c) =
  wr_int buf a;
  wr_int buf b;
  wr_int buf c

let rd_triple r =
  let a = rd_int r in
  let b = rd_int r in
  let c = rd_int r in
  (a, b, c)

(* Measure degree CCDF + JDD + TbD once against the protected graph; the
   three pipelines share the degree prefix, and JDD/TbD share more. *)
let measure secret =
  let budget = Budget.create ~name:"edges" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let rng = Prng.create 42 in
  let m_ccdf = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.degree_ccdf sym) in
  let m_jdd = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.jdd sym) in
  let m_tbd = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.tbd sym) in
  (m_ccdf, m_jdd, m_tbd)

let clone_all (mc, mj, mt) =
  (clone wr_int rd_int mc, clone wr_pair rd_pair mj, clone wr_triple rd_triple mt)

type setup = { fit : Fit.t; rebase : unit -> unit }

(* One shared plan source: common prefixes become one physical sub-DAG. *)
let shared_setup ~rng_seed ~seed_graph (mc, mj, mt) =
  let source = Plan.source ~name:"sym" () in
  let measured =
    [
      Fit.Measured (Qp.degree_ccdf source, mc);
      Fit.Measured (Qp.jdd source, mj);
      Fit.Measured (Qp.tbd source, mt);
    ]
  in
  let fit =
    Fit.create_shared ~rng:(Prng.create rng_seed) ~seed_graph ~source ~measured ()
  in
  let rebase () =
    Fit.rebuild_shared fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source
      ~measured
  in
  { fit; rebase }

(* A fresh plan source and a fresh lowering context per target: nothing is
   shared across target boundaries (diamonds *within* one plan still share,
   exactly as a direct let-bound instantiation would). *)
let unshared_setup ~rng_seed ~seed_graph (mc, mj, mt) =
  let target src p m sym =
    let ctx = Flow.Plans.create (Dataflow.engine_of (Flow.node sym)) in
    Flow.Plans.bind ctx src sym;
    Flow.Target.of_plan ctx p m
  in
  let s1 = Plan.source ~name:"sym" () in
  let s2 = Plan.source ~name:"sym" () in
  let s3 = Plan.source ~name:"sym" () in
  let targets =
    [
      target s1 (Qp.degree_ccdf s1) mc;
      target s2 (Qp.jdd s2) mj;
      target s3 (Qp.tbd s3) mt;
    ]
  in
  let fit = Fit.create ~rng:(Prng.create rng_seed) ~seed_graph ~targets () in
  let rebase () =
    Fit.rebuild fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~targets
  in
  { fit; rebase }

let drive fit n = List.init n (fun _ -> (Fit.step ~pow:50.0 fit, Fit.energy fit))

let compare_traces name shared unshared =
  List.iteri
    (fun i ((sa, se), (ua, ue)) ->
      Alcotest.(check bool) (Printf.sprintf "%s: step %d accept" name i) ua sa;
      check_bits (Printf.sprintf "%s: step %d energy" name i) ue se)
    (List.combine shared unshared)

let problem () =
  let secret = Gen.clustered ~n:50 ~community:10 ~p_in:0.7 ~extra:25 (Prng.create 3) in
  let seed = Rewire.randomize secret (Prng.create 4) in
  (seed, measure secret)

let test_bit_identity () =
  let seed, ms = problem () in
  let shared = shared_setup ~rng_seed:7 ~seed_graph:seed (clone_all ms) in
  let unshared = unshared_setup ~rng_seed:7 ~seed_graph:seed (clone_all ms) in
  Alcotest.(check bool) "shared fit reports cross-target sharing" true
    (Dataflow.Engine.nodes_shared (Fit.engine shared.fit)
    > Dataflow.Engine.nodes_shared (Fit.engine unshared.fit));
  check_bits "initial energy" (Fit.energy unshared.fit) (Fit.energy shared.fit);
  (* Plain steps: every rejected proposal exercises speculation abort over
     the shared sub-DAG. *)
  compare_traces "walk" (drive shared.fit 300) (drive unshared.fit 300);
  (* A clean audit is read-only and bit-neutral on both constructions. *)
  let ra = Fit.audit shared.fit and ru = Fit.audit unshared.fit in
  Alcotest.(check int) "shared audit clean" 0
    (List.length ra.Dataflow.Audit.divergences);
  Alcotest.(check int) "unshared audit clean" 0
    (List.length ru.Dataflow.Audit.divergences);
  Alcotest.(check bool) "audit checked cells" true (ra.Dataflow.Audit.cells_checked > 0);
  compare_traces "post-audit" (drive shared.fit 100) (drive unshared.fit 100);
  (* Checkpoint rebase: rebuild both engines in place from their own edge
     arrays — the same deterministic path a resume takes — and keep walking. *)
  shared.rebase ();
  unshared.rebase ();
  check_bits "energy after rebase" (Fit.energy unshared.fit) (Fit.energy shared.fit);
  Alcotest.(check bool) "rebased fit still shares" true
    (Dataflow.Engine.nodes_shared (Fit.engine shared.fit) > 0);
  compare_traces "post-rebase" (drive shared.fit 300) (drive unshared.fit 300);
  Alcotest.(check (array (pair int int)))
    "final edge arrays identical"
    (Fit.edge_array unshared.fit) (Fit.edge_array shared.fit)

(* The point of sharing: same answers, measurably less per-step work. *)
let test_shared_propagates_less () =
  let seed, ms = problem () in
  let shared = shared_setup ~rng_seed:9 ~seed_graph:seed (clone_all ms) in
  let unshared = unshared_setup ~rng_seed:9 ~seed_graph:seed (clone_all ms) in
  Alcotest.(check bool) "shared builds fewer physical nodes" true
    (Dataflow.Engine.nodes_built (Fit.engine shared.fit)
    < Dataflow.Engine.nodes_built (Fit.engine unshared.fit));
  let propagated setup n =
    let e = Fit.engine setup.fit in
    let before = Dataflow.Engine.records_propagated e in
    ignore (drive setup.fit n);
    Dataflow.Engine.records_propagated e - before
  in
  let ps = propagated shared 200 and pu = propagated unshared 200 in
  Alcotest.(check bool)
    (Printf.sprintf "fewer records propagated (%d < %d)" ps pu)
    true (ps < pu)

(* End-to-end: a multi-query synthesize (TbD + JDD fitted together over
   shared plans) killed mid-walk and resumed from its latest snapshot
   matches the uninterrupted run bit-for-bit. *)
let test_multi_query_checkpoint_resume () =
  let secret = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 5) in
  let run path =
    W.synthesize ~steps:1200 ~trace_every:400
      ~checkpoint:{ W.every = 300; sink = W.Single path }
      ~rng:(Prng.create 123) ~epsilon:0.5
      ~query:(Some (W.Tbd 1))
      ~queries:[ W.Jdd ] ~secret ()
  in
  let expect = Test_checkpoint.with_ckpt run in
  (* Seed 3ε plus derived costs: TbD 9ε + JDD 4ε at ε = 0.5. *)
  Helpers.check_close "total epsilon" 8.0 expect.W.total_epsilon;
  Test_checkpoint.with_ckpt (fun path ->
      Fault.arm ~site:"mcmc.step" ~after:700;
      (match run path with
      | exception Fault.Injected "mcmc.step" -> ()
      | _ -> Alcotest.fail "kill at step 700 did not fire");
      Alcotest.(check int) "latest snapshot step" 600 (W.checkpoint_step path);
      let got = W.resume ~path () in
      Test_checkpoint.check_result "multi-query kill/resume" expect got)

(* The interns of a paper-shaped JDD fit sit as close to their home slots
   as the feed-level bound demands.  A finished table's total displacement
   does not depend on insertion order, so this guards placement quality on
   real records (tuples, nested pairs) rather than the arrival-order
   pile-up, which only the mid-batch feed test can see. *)
let test_jdd_fit_displacement () =
  let secret = Gen.epinions_like ~n:1000 ~m:10_000 (Prng.create 0xe91) in
  let budget = Budget.create ~name:"edges" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let m_jdd = Batch.noisy_count ~rng:(Prng.create 42) ~epsilon:0.1 (Qb.jdd sym) in
  let source = Plan.source ~name:"sym" () in
  let fit =
    Fit.create_shared ~rng:(Prng.create 5)
      ~seed_graph:(Rewire.randomize secret (Prng.create 4))
      ~source
      ~measured:[ Fit.Measured (Qp.jdd source, m_jdd) ]
      ()
  in
  let s = Dataflow.Engine.intern_stats (Fit.engine fit) in
  Alcotest.(check bool) "interns registered" true (s.Dataflow.Engine.ids > 20_000);
  Alcotest.(check bool) "pair caches registered" true (s.Dataflow.Engine.pair_cache > 0);
  let mean = Test_itbl.mean_displacement (Fit.engine fit) in
  Alcotest.(check bool)
    (Printf.sprintf "mean displacement %.2f < %.1f" mean Test_itbl.mean_displacement_bound)
    true
    (mean < Test_itbl.mean_displacement_bound)

let suite =
  [
    Alcotest.test_case "jdd fit intern displacement" `Quick test_jdd_fit_displacement;
    Alcotest.test_case "shared = unshared, bit for bit" `Quick test_bit_identity;
    Alcotest.test_case "shared propagates fewer records" `Quick
      test_shared_propagates_less;
    Alcotest.test_case "multi-query checkpoint/resume" `Slow
      test_multi_query_checkpoint_resume;
  ]
