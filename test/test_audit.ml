(* The self-audit contract: after any sequence of speculative feeds —
   committed or aborted — every stateful cell's digest equals a fresh
   build's; an injected corruption (a target's distance, a join's weights
   and norms) is detected, reported with the cell's name, and repaired by
   the audit's own rebuild; and a clean audit is bit-neutral to the walk. *)

module Dataflow = Wpinq_dataflow.Dataflow
module Audit = Dataflow.Audit
module Wdata = Wpinq_weighted.Wdata
module Prng = Wpinq_prng.Prng
module Flow = Wpinq_core.Flow
module Plan = Wpinq_core.Plan
module Measurement = Wpinq_core.Measurement
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Fit = Wpinq_infer.Fit
module Mcmc = Wpinq_infer.Mcmc
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Fault = Wpinq_persist.Persist.Fault
module Q = Wpinq_queries.Queries.Make (Wpinq_core.Batch)
module Qp = Wpinq_queries.Queries.Make (Plan)
open Helpers

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- divergence arithmetic ---- *)

let test_ulp_distance () =
  Alcotest.(check int64) "equal" 0L (Audit.ulp_distance 1.0 1.0);
  Alcotest.(check int64) "one ulp up" 1L (Audit.ulp_distance 1.0 (Float.succ 1.0));
  Alcotest.(check int64) "one ulp down" 1L (Audit.ulp_distance 1.0 (Float.pred 1.0));
  Alcotest.(check int64) "symmetric" (Audit.ulp_distance 2.5 3.5) (Audit.ulp_distance 3.5 2.5);
  Alcotest.(check int64) "across zero" 2L (Audit.ulp_distance (Float.succ 0.0) (-.Float.succ 0.0));
  Alcotest.(check bool) "far apart is huge" true (Audit.ulp_distance 1.0 2.0 > 1_000_000L)

let test_audit_rejected_mid_speculation () =
  let engine = Dataflow.Engine.create () in
  let _input : int Dataflow.Input.t = Dataflow.Input.create engine in
  Dataflow.Engine.begin_speculation engine;
  Alcotest.check_raises "digests mid-speculation"
    (Invalid_argument "Dataflow.Engine.digests: cannot digest mid-speculation") (fun () ->
      ignore (Dataflow.Engine.digests engine));
  Dataflow.Engine.abort engine

(* ---- zero divergence under arbitrary speculate/commit/abort ---- *)

(* Each pipeline routes through a Join so the digests cover per-key norms;
   the upstream stage (group_by, except, shave) exercises a different
   operator's interaction with the undo log.  After every step the live
   engine's digests must equal a fresh build's over the same input. *)
let audit_clean name ~build =
  let fresh_digests input =
    let engine = Dataflow.Engine.create () in
    let fresh = Dataflow.Input.create engine in
    let _sink = Dataflow.Sink.attach (build (Dataflow.Input.node fresh)) in
    Dataflow.Input.feed fresh (Wdata.to_list (Dataflow.Input.current input));
    Dataflow.Engine.digests engine
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name (deltas_arb ()) (fun deltas ->
         let engine = Dataflow.Engine.create () in
         let input = Dataflow.Input.create engine in
         let _sink = Dataflow.Sink.attach (build (Dataflow.Input.node input)) in
         let i = ref 0 in
         List.for_all
           (fun delta ->
             incr i;
             Dataflow.Engine.begin_speculation engine;
             Dataflow.Input.feed input delta;
             (* Alternate outcomes: aborted state must audit as clean as
                committed state. *)
             if !i mod 2 = 0 then Dataflow.Engine.abort engine
             else Dataflow.Engine.commit engine;
             Dataflow.Engine.digests engine = fresh_digests input)
           deltas))

let clean_suite =
  [
    audit_clean "audit clean: self-join"
      ~build:(fun n ->
        Dataflow.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3)
          ~reduce:(fun x y -> (x, y))
          n n);
    audit_clean "audit clean: join-of-groupby"
      ~build:(fun n ->
        let degs = Dataflow.group_by ~key:(fun x -> x mod 3) ~reduce:List.length n in
        Dataflow.join
          ~kl:(fun x -> x mod 3)
          ~kr:(fun (k, _) -> k)
          ~reduce:(fun x (_, c) -> (x, c))
          n degs);
    audit_clean "audit clean: join-of-except"
      ~build:(fun n ->
        let e = Dataflow.except n (Dataflow.where (fun x -> x mod 2 = 0) n) in
        Dataflow.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3)
          ~reduce:(fun x y -> (x, y))
          e n);
    audit_clean "audit clean: join-of-shave"
      ~build:(fun n ->
        let s = Dataflow.select fst (Dataflow.shave_const 0.7 n) in
        Dataflow.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 2)
          ~reduce:(fun x y -> x + y)
          s n);
  ]

(* ---- detection of injected corruption ---- *)

let test_target_drift_detected () =
  let rng = Prng.create 123 in
  let m =
    Measurement.create ~rng ~epsilon:0.5 ~true_data:(Wdata.of_list [ (1, 2.0); (2, 1.0) ])
  in
  let source = Plan.source ~name:"sym" () in
  let fit =
    Fit.create_shared ~rng ~seed_graph:(Graph.of_edges ~n:8 [ (0, 1); (1, 6); (2, 5) ]) ~source
      ~measured:[ Fit.Measured (Plan.select (fun (u, v) -> (u + v) mod 5) source, m) ]
      ()
  in
  let before = Fit.audit fit in
  Alcotest.(check int) "clean before injection" 0 (List.length before.Audit.divergences);
  Alcotest.(check bool) "target enrolled" true (before.Audit.cells_checked > 0);
  Flow.Target.inject_drift (List.hd (Fit.targets fit)) 0.5;
  match Fit.audit fit with
  | { Audit.divergences = [ d ]; _ } ->
      Alcotest.(check bool) "cell names the target" true (contains d.Audit.cell "target#");
      check_close ~tol:1e-9 "reported drift" 0.5 d.Audit.abs_drift;
      Alcotest.(check bool) "ulp drift reported" true (d.Audit.ulp_drift > 0L);
      Alcotest.(check bool) "report prints" true
        (String.length (Audit.divergence_to_string d) > 0)
  | r -> Alcotest.failf "expected exactly one divergence, got %d" (List.length r.Audit.divergences)

let make_fit () =
  let secret = Gen.clustered ~n:60 ~community:8 ~p_in:0.7 ~extra:30 (Prng.create 7) in
  let seed = Rewire.randomize secret (Prng.create 8) in
  let rng = Prng.create 9 in
  let m =
    let budget = Budget.create ~name:"audit" 1e9 in
    let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
    Batch.noisy_count ~rng ~epsilon:1e4 (Q.tbi sym)
  in
  let source = Plan.source ~name:"sym" () in
  Fit.create_shared ~rng ~seed_graph:seed ~source ~measured:[ Fit.Measured (Qp.tbi source, m) ] ()

let test_fit_audit_detects_and_recovers () =
  let fit = make_fit () in
  ignore (Fit.run fit ~steps:200 ~pow:50.0 ());
  let clean = Fit.audit fit in
  Alcotest.(check int) "clean after 200 steps" 0 (List.length clean.Audit.divergences);
  Alcotest.(check bool) "cells were checked" true (clean.Audit.cells_checked > 0);
  Flow.Target.inject_drift (List.hd (Fit.targets fit)) 1.0;
  (* The detecting audit also repairs: its rebuild is the recovery. *)
  let detected = Fit.audit fit in
  Alcotest.(check bool) "injected drift detected" true
    (List.length detected.Audit.divergences > 0);
  Alcotest.(check bool) "recovery saw the divergence" true
    (List.exists (fun d -> contains d.Audit.cell "target#") detected.Audit.divergences);
  let after = Fit.audit fit in
  Alcotest.(check int) "clean after recovery" 0 (List.length after.Audit.divergences);
  (* The rebuilt state is batch truth: incremental energy = recomputation. *)
  let incremental = Fit.energy fit in
  List.iter Flow.Target.recompute (Fit.targets fit);
  let fresh =
    List.fold_left (fun acc t -> acc +. Flow.Target.weighted_distance t) 0.0 (Fit.targets fit)
  in
  check_close ~tol:1e-9 "energy matches recompute after recovery" fresh incremental

(* A join record's weight and its key norm corrupted together: the norm
   still sums its part and no target distance moves, so only the state
   digests can see it. *)
let test_join_corruption_detected () =
  let fit = make_fit () in
  ignore (Fit.run fit ~steps:100 ~pow:50.0 ());
  let energy = Fit.energy fit in
  let cell =
    match Dataflow.Engine.corrupt_join (Fit.engine fit) with
    | Some cell -> cell
    | None -> Alcotest.fail "no join holds a record"
  in
  let report = Fit.audit fit in
  let named c = List.exists (fun d -> d.Audit.cell = c) report.Audit.divergences in
  Alcotest.(check bool) ("weights of " ^ cell ^ " diverged") true (named cell);
  Alcotest.(check bool) ("norms of " ^ cell ^ " diverged") true (named (cell ^ ".norm"));
  Alcotest.(check bool) "no target distance diverged" false
    (List.exists (fun d -> contains d.Audit.cell "target#") report.Audit.divergences);
  Alcotest.(check int64) "energy kept" (Int64.bits_of_float energy)
    (Int64.bits_of_float (Fit.energy fit));
  let after = Fit.audit fit in
  Alcotest.(check int) "clean after the audit" 0 (List.length after.Audit.divergences)

let test_run_with_audit_cadence_recovers () =
  (* Corrupt the maintained distance mid-run: the next scheduled audit must
     detect it, the walk must recover and run to completion, and the damage
     must land in the stats.  A compaction between the injection and that
     audit would rebuild the drift away unseen, so the walk checks none
     ran: the engine's interned ids never drop from the injection (step
     120) up to the audit at step 150, the third to reach "mcmc.audit". *)
  let fit = make_fit () in
  let ids () = Dataflow.Engine.interned_ids (Fit.engine fit) in
  let since = ref None and audited = ref false in
  let look () =
    match !since with
    | Some last ->
        let now = ids () in
        if now < last then
          Alcotest.failf "a compaction ran after the injection (%d -> %d interned ids)" last now;
        since := Some now
    | None -> ()
  in
  Fault.arm_action ~site:"mcmc.audit" ~after:3 (fun () ->
      look ();
      audited := !since <> None;
      since := None);
  let stats =
    Fun.protect ~finally:Fault.disarm (fun () ->
        Fit.run fit ~steps:300 ~pow:50.0 ~audit_every:50
          ~on_step:(fun ~step ~energy:_ ->
            if step = 120 then begin
              Flow.Target.inject_drift (List.hd (Fit.targets fit)) 2.0;
              since := Some (ids ())
            end
            else look ())
          ())
  in
  Alcotest.(check bool) "drift reached the audit uncompacted" true !audited;
  Alcotest.(check int) "walk completed" 300 stats.Mcmc.steps;
  Alcotest.(check int) "audits ran on cadence" 6 stats.Mcmc.audits;
  Alcotest.(check bool) "divergences recorded" true (stats.Mcmc.audit_divergences > 0);
  let final = Fit.audit fit in
  Alcotest.(check int) "state clean at the end" 0 (List.length final.Audit.divergences)

let test_clean_audit_is_bit_neutral () =
  (* The acceptance criterion for auditing a healthy run: interleaving
     audits must not perturb the walk by a single bit — same acceptances,
     same edges, same final energy bit pattern. *)
  let fit_plain = make_fit () in
  let stats_plain = Fit.run fit_plain ~steps:300 ~pow:50.0 () in
  let fit_audited = make_fit () in
  let stats_audited = Fit.run fit_audited ~steps:300 ~pow:50.0 ~audit_every:25 () in
  Alcotest.(check int) "audits actually ran" 12 stats_audited.Mcmc.audits;
  Alcotest.(check int) "no divergences" 0 stats_audited.Mcmc.audit_divergences;
  Alcotest.(check int) "same acceptances" stats_plain.Mcmc.accepted stats_audited.Mcmc.accepted;
  Alcotest.(check int64) "same final energy bits"
    (Int64.bits_of_float stats_plain.Mcmc.final_energy)
    (Int64.bits_of_float stats_audited.Mcmc.final_energy);
  Alcotest.(check (list (pair int int)))
    "same edge array"
    (Array.to_list (Fit.edge_array fit_plain))
    (Array.to_list (Fit.edge_array fit_audited))

let suite =
  [
    Alcotest.test_case "ulp distance" `Quick test_ulp_distance;
    Alcotest.test_case "audit rejected mid-speculation" `Quick
      test_audit_rejected_mid_speculation;
    Alcotest.test_case "target drift detected" `Quick test_target_drift_detected;
    Alcotest.test_case "fit audit detects and recovers" `Slow
      test_fit_audit_detects_and_recovers;
    Alcotest.test_case "join corruption detected" `Quick test_join_corruption_detected;
    Alcotest.test_case "run with audit cadence recovers" `Slow
      test_run_with_audit_cadence_recovers;
    Alcotest.test_case "clean audit is bit-neutral" `Slow test_clean_audit_is_bit_neutral;
  ]
  @ clean_suite
