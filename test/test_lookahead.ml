(* The width-invariance property of the parallel speculative lookahead:
   [Fit.run ~jobs:k] must realize the SAME chain — bit-identical per-step
   energies, acceptance counts, final edge arrays — for every k, across
   speculation aborts, engine self-audits, and multi-query shared fits.
   Plus the scheduler-level guarantee: batches clamp to cadence
   boundaries. *)

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
module Dataflow = Wpinq_dataflow.Dataflow
module Fit = Wpinq_infer.Fit
module Mcmc = Wpinq_infer.Mcmc
module W = Wpinq_infer.Workflow
module Qp = Wpinq_queries.Queries.Make (Plan)
module Qb = Wpinq_queries.Queries.Make (Batch)

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

(* Degree CCDF + JDD: shared degree prefix, and JDD's pair-keyed
   measurement exercises lazy noise draws during speculative propagation —
   the state the lookahead abort must roll back exactly. *)
let measure secret =
  let budget = Budget.create ~name:"edges" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let rng = Prng.create 42 in
  let m_ccdf = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.degree_ccdf sym) in
  let m_jdd = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.jdd sym) in
  (m_ccdf, m_jdd)

let plans_over source (mc, mj) =
  [ Fit.Measured (Qp.degree_ccdf source, mc); Fit.Measured (Qp.jdd source, mj) ]

(* The fit plans over fresh clones of the measurements. *)
let shared_measured (mc, mj) =
  let source = Plan.source ~name:"sym" () in
  (source, plans_over source (clone wr_int rd_int mc, clone wr_pair rd_pair mj))

let shared_fit ~rng_seed ~seed_graph ms =
  let source, measured = shared_measured ms in
  Fit.create_shared ~rng:(Prng.create rng_seed) ~seed_graph ~source ~measured ()

let problem () =
  let secret = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 3) in
  let seed = Rewire.randomize secret (Prng.create 4) in
  (seed, measure secret)

type arm = {
  stats : Mcmc.stats;
  energies : (int * int64) list; (* (step, energy bits), oldest first *)
  edges : (int * int) array;
  batches : int;
  dispatched : int;
  consumed : int;
  counters : Mcmc.counters;
}

let run_arm ?(steps = 200) ?audit_every ?pow ?width ?(on_batch = fun ~dispatched:_ ~consumed:_ -> ())
    ~jobs fit =
  let energies = ref [] in
  let batches = ref 0 and dispatched = ref 0 and consumed = ref 0 in
  let counters = Mcmc.counters () in
  let stats =
    Fit.run fit ~steps ?pow ?audit_every ~jobs ?width ~counters
      ~on_step:(fun ~step ~energy ->
        energies := (step, Int64.bits_of_float energy) :: !energies)
      ~on_batch:(fun ~dispatched:d ~consumed:c ->
        on_batch ~dispatched:d ~consumed:c;
        incr batches;
        dispatched := !dispatched + d;
        consumed := !consumed + c)
      ()
  in
  {
    stats;
    energies = List.rev !energies;
    edges = Fit.edge_array fit;
    batches = !batches;
    dispatched = !dispatched;
    consumed = !consumed;
    counters;
  }

let check_same_walk name (a : arm) (b : arm) =
  List.iteri
    (fun i ((sa, ea), (sb, eb)) ->
      Alcotest.(check int) (Printf.sprintf "%s: step index %d" name i) sa sb;
      Alcotest.(check int64) (Printf.sprintf "%s: energy bits at step %d" name sa) ea eb)
    (List.combine a.energies b.energies);
  Alcotest.(check int) (name ^ ": accepted") a.stats.Mcmc.accepted b.stats.Mcmc.accepted;
  Alcotest.(check int) (name ^ ": invalid") a.stats.Mcmc.invalid b.stats.Mcmc.invalid;
  Alcotest.(check int64)
    (name ^ ": final energy bits")
    (Int64.bits_of_float a.stats.Mcmc.final_energy)
    (Int64.bits_of_float b.stats.Mcmc.final_energy);
  Alcotest.(check (array (pair int int))) (name ^ ": final edge arrays") a.edges b.edges

(* K in {1, 2, 4} realize the same chain; wider arms consume the whole
   dispatched prefix less often, so they take fewer batches. *)
let test_width_invariance () =
  let seed, ms = problem () in
  let arm jobs = run_arm ~steps:200 ~jobs (shared_fit ~rng_seed:7 ~seed_graph:seed ms) in
  let a1 = arm 1 and a2 = arm 2 and a4 = arm 4 in
  check_same_walk "jobs 1 vs 2" a1 a2;
  check_same_walk "jobs 1 vs 4" a1 a4;
  Alcotest.(check int) "jobs=1 batches = steps" 200 a1.batches;
  Alcotest.(check int) "jobs=1 lookahead is exact" a1.dispatched a1.consumed;
  Alcotest.(check bool)
    (Printf.sprintf "jobs=4 batches fewer than jobs=2 (%d < %d)" a4.batches a2.batches)
    true
    (a4.batches <= a2.batches && a2.batches < a1.batches);
  Alcotest.(check bool) "lookahead discards some speculation" true
    (a4.dispatched > a4.consumed)

(* Same chain with the engine self-audit enabled: audits run at their exact
   cadence in every arm (batches clamp to the boundary), stay clean, and
   leave the walk bit-identical. *)
let test_width_invariance_with_audits () =
  let seed, ms = problem () in
  let arm jobs =
    run_arm ~steps:150 ~audit_every:50 ~jobs
      (shared_fit ~rng_seed:11 ~seed_graph:seed ms)
  in
  let a1 = arm 1 and a3 = run_arm ~steps:150 ~audit_every:50 ~jobs:3
      (shared_fit ~rng_seed:11 ~seed_graph:seed ms) in
  ignore (arm 1);
  check_same_walk "audited walk jobs 1 vs 3" a1 a3;
  Alcotest.(check int) "jobs=1 audits ran" 3 a1.stats.Mcmc.audits;
  Alcotest.(check int) "jobs=3 audits ran" 3 a3.stats.Mcmc.audits;
  Alcotest.(check int) "jobs=1 audits clean" 0 a1.stats.Mcmc.audit_divergences;
  Alcotest.(check int) "jobs=3 audits clean" 0 a3.stats.Mcmc.audit_divergences

(* End-to-end through Workflow: synthesize at widths 1, 2 and 4 — with
   checkpoint rebases in the loop — produce bit-identical results and
   byte-identical final snapshots. *)
let test_workflow_width_invariance () =
  let secret = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 5) in
  let run ~jobs path =
    let r =
      W.synthesize ~steps:900 ~trace_every:300 ~jobs
        ~checkpoint:{ W.every = 300; sink = W.Single path }
        ~rng:(Prng.create 123) ~epsilon:0.5
        ~query:(Some W.Tbi) ~queries:[ W.Jdd ] ~secret ()
    in
    let bytes = In_channel.with_open_bin path In_channel.input_all in
    (r, bytes)
  in
  let r1, b1 = Test_checkpoint.with_ckpt (fun p -> run ~jobs:1 p) in
  let r2, b2 = Test_checkpoint.with_ckpt (fun p -> run ~jobs:2 p) in
  let r4, b4 = Test_checkpoint.with_ckpt (fun p -> run ~jobs:4 p) in
  let check name (a : W.result) (b : W.result) =
    Alcotest.(check int) (name ^ ": accepted") a.W.stats.Mcmc.accepted
      b.W.stats.Mcmc.accepted;
    Alcotest.(check int64)
      (name ^ ": final energy bits")
      (Int64.bits_of_float a.W.stats.Mcmc.final_energy)
      (Int64.bits_of_float b.W.stats.Mcmc.final_energy);
    Alcotest.(check (list (pair int int)))
      (name ^ ": synthetic edges")
      (Graph.edges a.W.synthetic) (Graph.edges b.W.synthetic);
    Alcotest.(check int)
      (name ^ ": trace length")
      (List.length a.W.trace) (List.length b.W.trace)
  in
  check "jobs 1 vs 2" r1 r2;
  check "jobs 1 vs 4" r1 r4;
  (* The snapshot embeds ck_jobs (the width is the resume default), so
     byte-identity holds per width after patching nothing — compare sizes
     and, for equal widths, exact bytes via a rerun. *)
  Alcotest.(check int) "snapshot sizes equal (1 vs 2)" (String.length b1)
    (String.length b2);
  Alcotest.(check int) "snapshot sizes equal (1 vs 4)" (String.length b1)
    (String.length b4);
  let r1', b1' = Test_checkpoint.with_ckpt (fun p -> run ~jobs:1 p) in
  check "jobs 1 rerun" r1 r1';
  Alcotest.(check bool) "snapshot bytes reproducible" true (String.equal b1 b1')

(* A checkpointed multi-width run resumes at a DIFFERENT width and still
   matches the uninterrupted chain bit-for-bit. *)
let test_resume_across_widths () =
  let secret = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 5) in
  let synth ~jobs ?stop path =
    W.synthesize ~steps:900 ~trace_every:300 ~jobs ?stop
      ~checkpoint:{ W.every = 300; sink = W.Single path }
      ~rng:(Prng.create 123) ~epsilon:0.5 ~query:(Some W.Tbi) ~secret ()
  in
  let expect = Test_checkpoint.with_ckpt (fun p -> synth ~jobs:2 p) in
  let resumed =
    Test_checkpoint.with_ckpt (fun p ->
        (* Stop partway (batch-aligned by construction), then resume wider. *)
        let polls = ref 0 in
        let stop () =
          incr polls;
          !polls > 150
        in
        let partial = synth ~jobs:2 ~stop p in
        Alcotest.(check bool) "stopped early" true partial.W.stats.Mcmc.interrupted;
        (* Resume wider AND under a width that changes every batch, up to
           four-stream slices: the chain is invariant to both. *)
        W.resume ~jobs:4 ~width:(Mcmc.Schedule (fun i -> 1 + (i mod 16))) ~path:p ())
  in
  Alcotest.(check int) "accepted" expect.W.stats.Mcmc.accepted
    resumed.W.stats.Mcmc.accepted;
  Alcotest.(check int64) "final energy bits"
    (Int64.bits_of_float expect.W.stats.Mcmc.final_energy)
    (Int64.bits_of_float resumed.W.stats.Mcmc.final_energy);
  Alcotest.(check (list (pair int int)))
    "synthetic edges"
    (Graph.edges expect.W.synthetic) (Graph.edges resumed.W.synthetic)

(* A width wider than the evaluator count gives each evaluator a
   multi-stream slice (8 streams on the owner alone, or 4 on the owner and
   4 on the replica).  Only wall-clock and the batch structure may differ
   from the serial reference. *)
let test_wide_slices_invariance () =
  let seed, ms = problem () in
  let serial = run_arm ~steps:200 ~jobs:1 (shared_fit ~rng_seed:7 ~seed_graph:seed ms) in
  let wide jobs =
    run_arm ~steps:200 ~jobs ~width:(Mcmc.Fixed 8) (shared_fit ~rng_seed:7 ~seed_graph:seed ms)
  in
  let a1 = wide 1 and a2 = wide 2 in
  check_same_walk "serial vs Fixed 8 at jobs=1" serial a1;
  check_same_walk "serial vs Fixed 8 at jobs=2" serial a2;
  Alcotest.(check int) "batches run at width 8" 8 a2.counters.Mcmc.k_max;
  Alcotest.(check bool)
    (Printf.sprintf "wide batches are fewer (%d < %d)" a2.batches serial.batches)
    true
    (a2.batches < serial.batches)

(* Schedule is the adversarial width policy: force shrink-to-1, regrow,
   oscillate — with audits in the loop — and the chain must still match
   the serial reference bit for bit. *)
let test_schedule_invariance () =
  let seed, ms = problem () in
  let serial =
    run_arm ~steps:150 ~audit_every:50 ~jobs:1 (shared_fit ~rng_seed:11 ~seed_graph:seed ms)
  in
  let schedules =
    [
      ("shrink-to-1 and regrow", fun i -> match i mod 4 with 0 -> 1 | 1 -> 7 | 2 -> 1 | _ -> 3);
      ("sawtooth", fun i -> 1 + (i mod 6));
      ("always wide", fun _ -> 9);
    ]
  in
  List.iter
    (fun (name, f) ->
      let a =
        run_arm ~steps:150 ~audit_every:50 ~jobs:2 ~width:(Mcmc.Schedule f)
          (shared_fit ~rng_seed:11 ~seed_graph:seed ms)
      in
      check_same_walk ("serial vs schedule " ^ name) serial a;
      Alcotest.(check int) (name ^ ": audits ran") 3 a.stats.Mcmc.audits)
    schedules

(* Counters sanity: phases accumulate, the width trajectory is recorded,
   and the accepted-swap commit path is cheap relative to a full
   speculative evaluation (per-event, commit must not dwarf eval).  The
   width changes every batch.  At jobs = 1 no replica is posted, so
   dispatch time is 0: eval is propose + speculate + abort on the owner,
   and commit is the in-place [Engine.commit] of the winner. *)
let test_counters_recorded () =
  let seed, ms = problem () in
  List.iter
    (fun jobs ->
      let name fmt = Printf.sprintf ("jobs=%d: " ^^ fmt) jobs in
      let a =
        run_arm ~steps:200 ~jobs
          ~width:(Mcmc.Schedule (fun i -> 1 + (i mod 8)))
          (shared_fit ~rng_seed:7 ~seed_graph:seed ms)
      in
      let c = a.counters in
      Alcotest.(check int) (name "batches counted") a.batches c.Mcmc.batches;
      Alcotest.(check int) (name "k_sum = dispatched") a.dispatched c.Mcmc.k_sum;
      Alcotest.(check bool) (name "k_min >= 1") true (c.Mcmc.k_min >= 1);
      Alcotest.(check bool) (name "k_min < k_max") true (c.Mcmc.k_min < c.Mcmc.k_max);
      Alcotest.(check bool) (name "eval time recorded") true (c.Mcmc.eval_us > 0.0);
      Alcotest.(check bool) (name "resolve time recorded") true (c.Mcmc.resolve_us > 0.0);
      if jobs = 1 then
        Alcotest.(check (float 0.0)) (name "nothing dispatched") 0.0 c.Mcmc.dispatch_us
      else
        Alcotest.(check bool) (name "dispatch time recorded") true (c.Mcmc.dispatch_us > 0.0);
      Alcotest.(check bool) (name "commit time non-negative") true (c.Mcmc.commit_us >= 0.0);
      Alcotest.(check bool) (name "walk accepted something") true (a.stats.Mcmc.accepted > 0);
      (* Committing an accepted swap (one 8-record delta feed, or keeping
         an open speculation) costs far less than speculatively evaluating
         a proposal (the same propagation plus undo logging, commit/abort
         drain, and Metropolis bookkeeping).  Give it 3x headroom against
         timer noise. *)
      let commit_per_event = c.Mcmc.commit_us /. float (max 1 a.stats.Mcmc.accepted) in
      (* Every evaluator stops at its slice's first winner.  At jobs = 1
         the owner's one slice is the whole batch, so exactly the consumed
         prefix is evaluated; at jobs = 2 the replica's slice may run past
         it, up to the dispatched width. *)
      let evaluated = if jobs = 1 then a.consumed else a.dispatched in
      let eval_per_event = c.Mcmc.eval_us /. float (max 1 evaluated) in
      Alcotest.(check bool)
        (name "commit cheap (%.1fus/commit vs %.1fus/eval)" commit_per_event eval_per_event)
        true
        (commit_per_event < 3.0 *. eval_per_event))
    [ 1; 2 ]

(* Exception safety: a hook that raises mid-walk must propagate out of
   [Fit.run ~jobs] with the worker domains joined — a leaked domain would
   hang the runtime at exit (and a prompt second run proves the fit and
   the pool teardown are clean). *)
exception Boom

let test_hook_exception_joins_workers () =
  let seed, ms = problem () in
  let fit = shared_fit ~rng_seed:7 ~seed_graph:seed ms in
  let raised =
    try
      ignore
        (Fit.run fit ~steps:200 ~jobs:2
           ~width:(Mcmc.Fixed 8)
           ~on_step:(fun ~step ~energy:_ -> if step = 57 then raise Boom)
           ());
      false
    with Boom -> true
  in
  Alcotest.(check bool) "hook exception propagated" true raised;
  (* The pool (and its domains) are gone; the owner fit is still a valid
     committed state and can stand up a fresh pool immediately. *)
  let again = run_arm ~steps:50 ~jobs:2 fit in
  Alcotest.(check bool) "fit usable after teardown" true
    (Float.is_finite again.stats.Mcmc.final_energy)

(* The owner is worker 0.  At jobs = 1 the walk runs on the owner fit's
   own engine: no replica is built, every valid proposal is one
   speculation on that engine, and each accepted one is kept in place by a
   commit.  At jobs = 2 under [Fixed 2] the owner evaluates position 0 of
   every batch and the replica position 1, so the owner's engine commits
   exactly the winners dealt to position 0; a replica's winner reaches the
   owner as a committed delta, which is no [Engine.commit]. *)
let test_owner_commits_its_winners () =
  let seed, ms = problem () in
  let fit = shared_fit ~rng_seed:7 ~seed_graph:seed ms in
  let engine = Fit.engine fit in
  (* At jobs = 1 every batch is one step, and [on_batch] fires after its
     evaluation and before its commit: the commit count there is the
     number of steps accepted before this one. *)
  let before = ref [] in
  let a =
    run_arm ~steps:200 ~jobs:1 fit ~on_batch:(fun ~dispatched:_ ~consumed:_ ->
        before := Dataflow.Engine.commits engine :: !before)
  in
  let commits = Array.of_list (List.rev (Dataflow.Engine.commits engine :: !before)) in
  let accepted step = commits.(step) > commits.(step - 1) in
  Alcotest.(check bool) "same engine after the walk" true (Fit.engine fit == engine);
  Alcotest.(check int) "commits = accepted" a.stats.Mcmc.accepted
    (Dataflow.Engine.commits engine);
  Alcotest.(check int) "commits + aborts = valid proposals evaluated"
    (a.stats.Mcmc.steps - a.stats.Mcmc.invalid)
    (Dataflow.Engine.commits engine + Dataflow.Engine.aborts engine);
  Alcotest.(check bool) "walk accepted and rejected" true
    (a.stats.Mcmc.accepted > 0 && Dataflow.Engine.aborts engine > 0);
  let fit2 = shared_fit ~rng_seed:7 ~seed_graph:seed ms in
  let taken = ref 0 and at_zero = ref 0 in
  let a2 =
    run_arm ~steps:200 ~jobs:2 ~width:(Mcmc.Fixed 2) fit2 ~on_batch:(fun ~dispatched:_ ~consumed ->
        if accepted (!taken + 1) then incr at_zero;
        taken := !taken + consumed)
  in
  check_same_walk "jobs 1 vs 2" a a2;
  Alcotest.(check int) "no non-finite reading" 0 a2.stats.Mcmc.refreshed_on_nonfinite;
  Alcotest.(check bool)
    (Printf.sprintf "both evaluators won (%d of %d at position 0)" !at_zero
       a2.stats.Mcmc.accepted)
    true
    (!at_zero > 0 && !at_zero < a2.stats.Mcmc.accepted);
  Alcotest.(check int) "jobs=2 owner commits = position-0 winners" !at_zero
    (Dataflow.Engine.commits (Fit.engine fit2));
  Alcotest.(check bool) "jobs=2 owner speculates" true
    (Dataflow.Engine.aborts (Fit.engine fit2) > 0)

(* [create_shared] builds through the same edge-array path as
   [restore_shared], so a fresh fit and one restored at its edge array read
   the same energy bits — the state replicas are built from. *)
let test_create_matches_restore () =
  let seed, ms = problem () in
  let fit = shared_fit ~rng_seed:7 ~seed_graph:seed ms in
  let source, measured = shared_measured ms in
  let restored =
    Fit.restore_shared ~rng:(Prng.create 7) ~n:(Graph.n seed) ~edges:(Fit.edge_array fit)
      ~source ~measured ()
  in
  Alcotest.(check int64) "energy bits"
    (Int64.bits_of_float (Fit.energy fit))
    (Int64.bits_of_float (Fit.energy restored))

(* The canonical energy baseline: a target seeds only the measurement-time
   support, so lazy draws made by an earlier walk over the same measurement
   do not move the energy of a fit built later at the same edge array. *)
let test_baseline_ignores_lazy_draws () =
  let seed, (mc, mj) = problem () in
  let mc = clone wr_int rd_int mc and mj = clone wr_pair rd_pair mj in
  let source = Plan.source ~name:"sym" () in
  let edges = Graph.Mutable.edge_array (Graph.Mutable.of_graph seed) in
  let build () =
    Fit.restore_shared ~rng:(Prng.create 7) ~n:(Graph.n seed) ~edges ~source
      ~measured:(plans_over source (mc, mj))
      ()
  in
  let e_before = Fit.energy (build ()) in
  let support = Measurement.observed_size mj in
  ignore (Fit.run (build ()) ~steps:300 ~jobs:1 ());
  let drawn = Measurement.observed_size mj in
  Alcotest.(check bool)
    (Printf.sprintf "the walk drew lazily (%d > %d records)" drawn support)
    true (drawn > support);
  Alcotest.(check int64) "energy bits before and after lazy draws"
    (Int64.bits_of_float e_before)
    (Int64.bits_of_float (Fit.energy (build ())))

(* A rebuild over the snapshot's copies of the live measurements (what a
   resume does) keeps their lazy draws outside the baseline, so the energy
   carries over bit for bit instead of jumping by ε·Σ|m x| over them. *)
let test_rebase_keeps_energy () =
  let seed, (mc, mj) = problem () in
  let mc = clone wr_int rd_int mc and mj = clone wr_pair rd_pair mj in
  let source = Plan.source ~name:"sym" () in
  let fit =
    Fit.create_shared ~rng:(Prng.create 7) ~seed_graph:seed ~source
      ~measured:(plans_over source (mc, mj))
      ()
  in
  let support = Measurement.observed_size mj in
  ignore (Fit.run fit ~steps:300 ~jobs:1 ());
  Alcotest.(check bool) "the walk drew lazily" true (Measurement.observed_size mj > support);
  let walked = Fit.energy fit in
  Fit.rebuild_shared fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source
    ~measured:(plans_over source (clone wr_int rd_int mc, clone wr_pair rd_pair mj));
  let rebased = Fit.energy fit in
  Alcotest.(check int64) "energy bits carried over the rebuild" (Int64.bits_of_float walked)
    (Int64.bits_of_float rebased)

(* The owner keeps a winner's speculation open until the scheduler commits
   it.  A hook that raises in between (here: on a step before the winner,
   under a wide batch) must leave the fit at its last committed state:
   engine quiescent, audit clean, and ready for another walk. *)
let test_hook_exception_at_jobs_1 () =
  let seed, ms = problem () in
  let fit = shared_fit ~rng_seed:7 ~seed_graph:seed ms in
  let raised =
    try
      ignore
        (Fit.run fit ~steps:200 ~jobs:1
           ~width:(Mcmc.Fixed 8)
           ~on_step:(fun ~step ~energy:_ -> if step = 57 then raise Boom)
           ());
      false
    with Boom -> true
  in
  Alcotest.(check bool) "hook exception propagated" true raised;
  Alcotest.(check bool) "no speculation left open" false
    (Dataflow.Engine.speculating (Fit.engine fit));
  Alcotest.(check int) "audit clean after teardown" 0
    (List.length (Fit.audit fit).Dataflow.Audit.divergences);
  let again = run_arm ~steps:50 ~jobs:1 fit in
  Alcotest.(check bool) "fit usable after teardown" true
    (Float.is_finite again.stats.Mcmc.final_energy)

(* Hooks for the steps before a batch's winner read the pre-batch graph:
   a trace sampled at every step is the same whether the owner evaluates
   16-wide batches alone (jobs = 1) or shares each batch with a replica
   (jobs = 2). *)
let test_trace_inside_wide_batches () =
  let secret = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 5) in
  let run ~jobs ?width () =
    W.synthesize ~steps:300 ~trace_every:1 ~jobs ?width ~rng:(Prng.create 123) ~epsilon:0.5
      ~query:(Some W.Tbi) ~queries:[ W.Jdd ] ~secret ()
  in
  let point (p : W.trace_point) =
    (p.W.step, p.W.triangles, Int64.bits_of_float p.W.assortativity,
     Int64.bits_of_float p.W.energy)
  in
  let owner = run ~jobs:1 ~width:(Mcmc.Fixed 16) () in
  let replicas = run ~jobs:2 () in
  Alcotest.(check int) "trace length" 301 (List.length owner.W.trace);
  Alcotest.(check bool) "identical traces" true
    (List.map point owner.W.trace = List.map point replicas.W.trace)

let suite =
  [
    Alcotest.test_case "lookahead width invariance (K in {1,2,4})" `Quick
      test_width_invariance;
    Alcotest.test_case "width invariance under self-audits" `Quick
      test_width_invariance_with_audits;
    Alcotest.test_case "wide multi-stream slices invariance" `Quick
      test_wide_slices_invariance;
    Alcotest.test_case "schedule invariance (shrink-to-1, regrow, audits)" `Quick
      test_schedule_invariance;
    Alcotest.test_case "phase counters + O(delta) commit" `Quick test_counters_recorded;
    Alcotest.test_case "hook exception joins worker domains" `Quick
      test_hook_exception_joins_workers;
    Alcotest.test_case "workflow width invariance + snapshot reproducibility" `Quick
      test_workflow_width_invariance;
    Alcotest.test_case "resume at a different width" `Quick test_resume_across_widths;
    Alcotest.test_case "owner commits exactly its winners" `Quick
      test_owner_commits_its_winners;
    Alcotest.test_case "create = restore at the seed edge array" `Quick
      test_create_matches_restore;
    Alcotest.test_case "energy baseline ignores lazy draws" `Quick
      test_baseline_ignores_lazy_draws;
    Alcotest.test_case "energy carries over a rebase" `Quick test_rebase_keeps_energy;
    Alcotest.test_case "hook exception at jobs = 1" `Quick test_hook_exception_at_jobs_1;
    Alcotest.test_case "trace inside wide owner batches" `Quick
      test_trace_inside_wide_batches;
  ]
