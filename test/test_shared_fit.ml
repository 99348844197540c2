(* The sharing property test: a multi-target walk over plans lowered through
   ONE shared context must be bit-identical — energies, acceptance decisions,
   final synthetic dataset — to the same walk over unshared per-target
   pipelines, across plain steps (including speculation aborts on rejected
   proposals); and the shared construction must do measurably less
   propagation work per step.  Both constructions run on bare engines under
   one driver, so their engine counters compare like for like, and the
   shared one is checked step for step against the fit's own walk across a
   clean audit and a checkpoint rebase. *)

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

(* One shared plan source: common prefixes become one physical sub-DAG. *)
let shared_plans (mc, mj, mt) =
  let source = Plan.source ~name:"sym" () in
  ( source,
    [
      Fit.Measured (Qp.degree_ccdf source, mc);
      Fit.Measured (Qp.jdd source, mj);
      Fit.Measured (Qp.tbd source, mt);
    ] )

let shared_targets (source, measured) sym =
  let ctx = Flow.Plans.create (Dataflow.engine_of (Flow.node sym)) in
  Flow.Plans.bind ctx source sym;
  List.map (fun (Fit.Measured (p, m)) -> Flow.Target.of_plan ctx p m) measured

(* A fresh plan source and a fresh lowering context per target: nothing is
   shared across target boundaries (diamonds *within* one plan still share,
   exactly as a direct let-bound instantiation would). *)
let unshared_targets (mc, mj, mt) sym =
  let target q m =
    let src = Plan.source ~name:"sym" () in
    let ctx = Flow.Plans.create (Dataflow.engine_of (Flow.node sym)) in
    Flow.Plans.bind ctx src sym;
    Flow.Target.of_plan ctx (q src) m
  in
  [ target Qp.degree_ccdf mc; target Qp.jdd mj; target (fun s -> Qp.tbd s) mt ]

type walker = {
  engine : Dataflow.Engine.t;
  walk : steps:int -> on_step:(step:int -> energy:float -> unit) -> Mcmc.stats;
  energy : unit -> float;
  edges : unit -> (int * int) array;
}

(* A bare engine walked by [Mcmc.run_lookahead] at width 1, over the
   targets [build] lowers from the synthetic input: the fit's jobs = 1
   evaluation (speculate, hold the first winner open, commit it in place)
   without the fit's compaction. *)
let bare ~rng_seed ~seed_graph build =
  let engine = Dataflow.Engine.create () in
  let handle, sym = Flow.input engine in
  let targets = build sym in
  let graph = Graph.Mutable.of_graph seed_graph in
  Flow.feed handle
    (List.concat_map
       (fun (u, v) -> [ ((u, v), 1.0); ((v, u), 1.0) ])
       (Array.to_list (Graph.Mutable.edge_array graph)));
  let energy = ref (Flow.Target.energy targets) in
  let eval ~pow ~energy:base streams =
    let verdicts = Array.make (Array.length streams) Mcmc.Invalid in
    let rec go i =
      if i < Array.length streams then
        match Graph.Mutable.propose_swap graph streams.(i) with
        | None -> go (i + 1)
        | Some swap ->
            Dataflow.Engine.begin_speculation engine;
            Graph.Mutable.apply graph swap;
            Flow.feed handle (Graph.Mutable.delta swap);
            let proposed = Flow.Target.energy targets in
            Graph.Mutable.apply graph (Graph.Mutable.invert swap);
            let delta = proposed -. base in
            if not (Float.is_finite proposed) then begin
              Dataflow.Engine.abort engine;
              verdicts.(i) <- Mcmc.Nonfinite
            end
            else if delta <= 0.0 || Prng.uniform streams.(i) < exp (-.pow *. delta) then
              verdicts.(i) <- Mcmc.Accepted { swap; proposed }
            else begin
              Dataflow.Engine.abort engine;
              verdicts.(i) <- Mcmc.Rejected;
              go (i + 1)
            end
    in
    go 0;
    verdicts
  in
  let lookahead =
    {
      Mcmc.la_jobs = 1;
      la_energy = (fun () -> !energy);
      la_eval = eval;
      la_commit =
        (fun swap ~proposed ->
          Graph.Mutable.apply graph swap;
          Dataflow.Engine.commit engine;
          energy := proposed);
      la_refresh =
        (fun () ->
          List.iter Flow.Target.recompute targets;
          energy := Flow.Target.energy targets;
          !energy);
      la_resync = (fun () -> !energy);
    }
  in
  let rng = Prng.create rng_seed in
  {
    engine;
    walk =
      (fun ~steps ~on_step -> Mcmc.run_lookahead ~rng ~lookahead ~steps ~pow:50.0 ~on_step ());
    energy = (fun () -> !energy);
    edges = (fun () -> Graph.Mutable.edge_array graph);
  }

let of_fit fit =
  {
    engine = Fit.engine fit;
    walk = (fun ~steps ~on_step -> Fit.run fit ~steps ~pow:50.0 ~on_step ());
    energy = (fun () -> Fit.energy fit);
    edges = (fun () -> Fit.edge_array fit);
  }

(* Walk [n] steps: the accepted count and every step's energy. *)
let drive w n =
  let energies = ref [] in
  let stats = w.walk ~steps:n ~on_step:(fun ~step:_ ~energy -> energies := energy :: !energies) in
  (stats.Mcmc.accepted, List.rev !energies)

let compare_traces name (sa, se) (ua, ue) =
  Alcotest.(check int) (name ^ ": accepted") ua sa;
  List.iteri
    (fun i (s, u) -> check_bits (Printf.sprintf "%s: step %d energy" name (i + 1)) u s)
    (List.combine se ue)

let problem () =
  let secret = Gen.clustered ~n:50 ~community:10 ~p_in:0.7 ~extra:25 (Prng.create 3) in
  let seed = Rewire.randomize secret (Prng.create 4) in
  (seed, measure secret)

let test_bit_identity () =
  let seed, ms = problem () in
  let source, measured = shared_plans (clone_all ms) in
  let fit = Fit.create_shared ~rng:(Prng.create 7) ~seed_graph:seed ~source ~measured () in
  let walked = of_fit fit in
  let shared =
    bare ~rng_seed:7 ~seed_graph:seed (shared_targets (shared_plans (clone_all ms)))
  in
  let unshared = bare ~rng_seed:7 ~seed_graph:seed (unshared_targets (clone_all ms)) in
  Alcotest.(check bool) "shared fit reports cross-target sharing" true
    (Dataflow.Engine.nodes_shared shared.engine > Dataflow.Engine.nodes_shared unshared.engine);
  check_bits "initial energy" (unshared.energy ()) (shared.energy ());
  check_bits "fit's initial energy" (shared.energy ()) (Fit.energy fit);
  (* Plain steps: every rejected proposal exercises speculation abort over
     the shared sub-DAG. *)
  let walk_all name n =
    let s = drive shared n in
    compare_traces name s (drive unshared n);
    compare_traces (name ^ " (fit)") (drive walked n) s
  in
  walk_all "walk" 300;
  (* A clean audit rebuilds the fit in place and is bit-neutral. *)
  let ra = Fit.audit fit in
  Alcotest.(check int) "fit audit clean" 0 (List.length ra.Dataflow.Audit.divergences);
  Alcotest.(check bool) "audit checked cells" true (ra.Dataflow.Audit.cells_checked > 0);
  walk_all "post-audit" 100;
  (* Checkpoint rebase: rebuild the fit's engine in place from its own edge
     array — the same deterministic path a resume takes — and keep
     walking. *)
  Fit.rebuild_shared fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source ~measured;
  check_bits "energy after rebase" (shared.energy ()) (Fit.energy fit);
  Alcotest.(check bool) "rebased fit still shares" true
    (Dataflow.Engine.nodes_shared (Fit.engine fit) > 0);
  walk_all "post-rebase" 300;
  Alcotest.(check (array (pair int int)))
    "final edge arrays identical" (unshared.edges ()) (shared.edges ());
  Alcotest.(check (array (pair int int)))
    "fit's final edge array" (shared.edges ()) (Fit.edge_array fit)

(* The point of sharing: same answers, measurably less per-step work. *)
let test_shared_propagates_less () =
  let seed, ms = problem () in
  let shared =
    bare ~rng_seed:9 ~seed_graph:seed (shared_targets (shared_plans (clone_all ms)))
  in
  let unshared = bare ~rng_seed:9 ~seed_graph:seed (unshared_targets (clone_all ms)) in
  Alcotest.(check bool) "shared builds fewer physical nodes" true
    (Dataflow.Engine.nodes_built shared.engine < Dataflow.Engine.nodes_built unshared.engine);
  let propagated w n =
    let before = Dataflow.Engine.records_propagated w.engine in
    ignore (drive w n);
    Dataflow.Engine.records_propagated w.engine - before
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
