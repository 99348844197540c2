module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Prng = Wpinq_prng.Prng
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Measurement = Wpinq_core.Measurement
module Mcmc = Wpinq_infer.Mcmc
module Fit = Wpinq_infer.Fit
module Workflow = Wpinq_infer.Workflow
module Plan = Wpinq_core.Plan
module Q = Wpinq_queries.Queries.Make (Wpinq_core.Batch)
module Qp = Wpinq_queries.Queries.Make (Plan)
open Helpers

(* Toy MCMC problem: fit an integer vector to a target under L1 energy. *)
let toy_problem () =
  let target = [| 4; -2; 7; 0; 3 |] in
  let state = Array.make 5 0 in
  let energy () =
    let acc = ref 0.0 in
    Array.iteri (fun i v -> acc := !acc +. Float.abs (float_of_int (v - target.(i)))) state;
    !acc
  in
  (target, state, energy)

(* The walk's evaluator over a toy state, as a fit evaluates at jobs = 1:
   each stream proposes a move, which is applied, scored and reverted; the
   first winner stops the batch and is re-applied by [la_commit]. *)
let toy_lookahead ?(refresh = fun () -> ()) ~energy ~propose ~apply ~revert () =
  let eval ~pow ~energy:base streams =
    let verdicts = Array.make (Array.length streams) Mcmc.Invalid in
    let rec go i =
      if i < Array.length streams then
        match propose streams.(i) with
        | None -> go (i + 1)
        | Some move ->
            apply move;
            let proposed = energy () in
            revert move;
            let delta = proposed -. base in
            if not (Float.is_finite proposed) then verdicts.(i) <- Mcmc.Nonfinite
            else if delta <= 0.0 || Prng.uniform streams.(i) < exp (-.pow *. delta) then
              verdicts.(i) <- Mcmc.Accepted { swap = move; proposed }
            else begin
              verdicts.(i) <- Mcmc.Rejected;
              go (i + 1)
            end
    in
    go 0;
    verdicts
  in
  {
    Mcmc.la_jobs = 1;
    la_energy = energy;
    la_eval = eval;
    la_commit = (fun move ~proposed:_ -> apply move);
    la_refresh =
      (fun () ->
        refresh ();
        energy ());
    la_resync = energy;
  }

(* A toy walk whose every proposal is invalid. *)
let idle_lookahead () =
  let _, _, energy = toy_problem () in
  toy_lookahead ~energy ~propose:(fun _ -> None) ~apply:ignore ~revert:ignore ()

let test_mcmc_greedy_descends () =
  let target, state, energy = toy_problem () in
  let lookahead =
    toy_lookahead ~energy
      ~propose:(fun s ->
        let i = Prng.int s 5 in
        let d = if Prng.bool s then 1 else -1 in
        Some (i, d))
      ~apply:(fun (i, d) -> state.(i) <- state.(i) + d)
      ~revert:(fun (i, d) -> state.(i) <- state.(i) - d)
      ()
  in
  let stats = Mcmc.run_lookahead ~rng:(Prng.create 1) ~lookahead ~steps:3000 ~pow:50.0 () in
  Alcotest.(check (array int)) "target reached" target state;
  check_close "final energy" 0.0 stats.Mcmc.final_energy;
  check_close "initial energy" 16.0 stats.Mcmc.initial_energy;
  Alcotest.(check bool) "acceptance bounded" true (stats.Mcmc.accepted <= stats.Mcmc.steps)

let test_mcmc_always_accepts_improvement () =
  (* With pow = 0 every move is accepted (exp(0) = 1 > uniform draws...
     almost surely); with huge pow, only improvements are.  Check the huge
     pow case rejects a known-worse move. *)
  let _, state, energy = toy_problem () in
  state.(0) <- 4;
  (* proposing +1 on index 0 strictly worsens; it must be reverted *)
  let lookahead =
    toy_lookahead ~energy
      ~propose:(fun _ -> Some 0)
      ~apply:(fun _ -> state.(0) <- state.(0) + 1)
      ~revert:(fun _ -> state.(0) <- state.(0) - 1)
      ()
  in
  let stats = Mcmc.run_lookahead ~rng:(Prng.create 2) ~lookahead ~steps:200 ~pow:1e9 () in
  Alcotest.(check int) "never accepted" 0 stats.Mcmc.accepted;
  Alcotest.(check int) "state reverted" 4 state.(0)

let test_mcmc_invalid_proposals () =
  let stats =
    Mcmc.run_lookahead ~rng:(Prng.create 3) ~lookahead:(idle_lookahead ()) ~steps:50 ()
  in
  Alcotest.(check int) "all invalid" 50 stats.Mcmc.invalid;
  Alcotest.(check int) "none accepted" 0 stats.Mcmc.accepted

let test_mcmc_on_step_called () =
  let calls = ref 0 in
  let _ =
    Mcmc.run_lookahead ~rng:(Prng.create 4) ~lookahead:(idle_lookahead ()) ~steps:25
      ~on_step:(fun ~step:_ ~energy:_ -> incr calls)
      ()
  in
  Alcotest.(check int) "on_step every iteration" 25 !calls

let test_mcmc_nonfinite_energy_refreshes () =
  (* An incremental energy that goes NaN after a move must trigger an
     immediate refresh and revert — never reach accept/reject. *)
  let state = ref 0 in
  let poisoned = ref false in
  let armed = ref true in
  let refreshes = ref 0 in
  (* Walking toward 10, so proposals are normally accepted. *)
  let energy () = if !poisoned then Float.nan else Float.abs (float_of_int (!state - 10)) in
  let lookahead =
    toy_lookahead
      ~refresh:(fun () ->
        incr refreshes;
        poisoned := false)
      ~energy
      ~propose:(fun _ -> Some ())
      ~apply:(fun () ->
        incr state;
        (* Poison the third proposal's energy reading only. *)
        if !state = 3 && !armed then begin
          poisoned := true;
          armed := false
        end)
      ~revert:(fun () -> decr state)
      ()
  in
  let stats = Mcmc.run_lookahead ~rng:(Prng.create 5) ~lookahead ~steps:10 ~pow:1e9 () in
  Alcotest.(check int) "one non-finite refresh" 1 stats.Mcmc.refreshed_on_nonfinite;
  Alcotest.(check int) "refresh callback ran" 1 !refreshes;
  Alcotest.(check bool) "final energy finite" true (Float.is_finite stats.Mcmc.final_energy)

let test_mcmc_start_offset () =
  (* A resumed chain passes ?start: only steps start+1..steps run, and the
     per-segment counters reflect just that segment. *)
  let calls = ref [] in
  let stats =
    Mcmc.run_lookahead ~rng:(Prng.create 6) ~lookahead:(idle_lookahead ()) ~steps:10 ~start:7
      ~on_step:(fun ~step ~energy:_ -> calls := step :: !calls)
      ()
  in
  Alcotest.(check (list int)) "steps run" [ 10; 9; 8 ] !calls;
  Alcotest.(check int) "segment length" 3 stats.Mcmc.steps;
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Mcmc.run_lookahead: start must be within [0, steps]") (fun () ->
      ignore
        (Mcmc.run_lookahead ~rng:(Prng.create 6) ~lookahead:(idle_lookahead ()) ~steps:5
           ~start:6 ()))

let test_mcmc_checkpoint_hook () =
  let fired steps =
    let fired = ref [] in
    let _ =
      Mcmc.run_lookahead ~rng:(Prng.create 7) ~lookahead:(idle_lookahead ()) ~steps
        ~checkpoint_every:3
        ~on_checkpoint:(fun ~step ~stats -> fired := (step, stats.Mcmc.steps) :: !fired)
        ()
    in
    !fired
  in
  (* Fires at multiples of 3 but never at the final step: over 10 steps
     all three fire, over 9 the cadence hits the end and step 9 skips. *)
  Alcotest.(check (list (pair int int)))
    "fired at cadence" [ (9, 9); (6, 6); (3, 3) ] (fired 10);
  Alcotest.(check (list (pair int int))) "final step skipped" [ (6, 6); (3, 3) ] (fired 9)

(* ---- Fit ---- *)

let tbi_measurement secret epsilon rng =
  let budget = Budget.create ~name:"g" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  Batch.noisy_count ~rng ~epsilon (Q.tbi sym)

(* A fit of [seed_graph] to one measurement of the plan [query]. *)
let fit_to ~rng ~seed_graph query m =
  let source = Plan.source ~name:"sym" () in
  Fit.create_shared ~rng ~seed_graph ~source ~measured:[ Fit.Measured (query source, m) ] ()

let test_fit_energy_matches_distance () =
  (* Seed == secret and negligible noise: energy ~ 0. *)
  let secret = Gen.clustered ~n:80 ~community:8 ~p_in:0.7 ~extra:40 (Prng.create 5) in
  let rng = Prng.create 6 in
  let m = tbi_measurement secret 1e6 rng in
  let fit = fit_to ~rng ~seed_graph:secret Qp.tbi m in
  Alcotest.(check bool) "perfect seed, ~zero energy" true (Fit.energy fit < 1.0)

let test_fit_step_revert_consistency () =
  (* After any number of steps, incremental energy equals a fresh recompute. *)
  let secret = Gen.clustered ~n:60 ~community:8 ~p_in:0.7 ~extra:30 (Prng.create 7) in
  let seed = Rewire.randomize secret (Prng.create 8) in
  let rng = Prng.create 9 in
  let m = tbi_measurement secret 1e4 rng in
  let fit = fit_to ~rng ~seed_graph:seed Qp.tbi m in
  ignore (Fit.run fit ~steps:200 ~pow:5.0 ());
  let incremental = Fit.energy fit in
  List.iter Flow.Target.recompute (Fit.targets fit);
  let fresh = List.fold_left (fun acc t -> acc +. Flow.Target.weighted_distance t) 0.0 (Fit.targets fit) in
  check_close ~tol:1e-3 "no drift" fresh incremental

let test_fit_improves_triangles () =
  (* Fitting a rewired seed to a low-noise TbI measurement must push the
     triangle count toward the secret's. *)
  let secret = Gen.clustered ~n:100 ~community:10 ~p_in:0.8 ~extra:40 (Prng.create 10) in
  let seed = Rewire.randomize secret (Prng.create 11) in
  let rng = Prng.create 12 in
  let m = tbi_measurement secret 100.0 rng in
  let fit = fit_to ~rng ~seed_graph:seed Qp.tbi m in
  let before_tri = Graph.triangle_count (Fit.graph fit) in
  let before_energy = Fit.energy fit in
  let stats = Fit.run fit ~steps:20_000 ~pow:1_000.0 () in
  let after_tri = Graph.triangle_count (Fit.graph fit) in
  Alcotest.(check bool)
    (Printf.sprintf "triangles rose %d -> %d (secret %d)" before_tri after_tri
       (Graph.triangle_count secret))
    true
    (after_tri > 3 * before_tri);
  Alcotest.(check bool) "energy fell" true (stats.Mcmc.final_energy < before_energy);
  (* Degrees are preserved by the walk. *)
  Alcotest.(check (array int)) "degree multiset preserved"
    (Graph.degree_sequence_desc seed)
    (Graph.degree_sequence_desc (Fit.graph fit))

(* ---- Workflow ---- *)

let test_workflow_costs () =
  check_close "tbi cost" 0.4 (Workflow.query_cost Workflow.Tbi 0.1);
  check_close "tbd cost" 0.9 (Workflow.query_cost (Workflow.Tbd 20) 0.1)

let test_fit_degrees_low_noise () =
  (* With tiny noise, the fitted degree sequence matches the real one. *)
  let secret = Gen.clustered ~n:60 ~community:8 ~p_in:0.7 ~extra:30 (Prng.create 13) in
  let budget = Budget.create ~name:"g" 1e12 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let ms = Workflow.measure_seed ~rng:(Prng.create 14) ~epsilon:1e6 ~sym in
  let fitted = Workflow.fit_degrees ms in
  let truth = Graph.degree_sequence_desc secret in
  Alcotest.(check int) "length = node count" (Array.length truth) (Array.length fitted);
  Array.iteri
    (fun i d -> Alcotest.(check int) (Printf.sprintf "degree[%d]" i) d fitted.(i))
    truth

let test_fit_degrees_pava_only_low_noise () =
  let secret = Gen.clustered ~n:60 ~community:8 ~p_in:0.7 ~extra:30 (Prng.create 15) in
  let budget = Budget.create ~name:"g" 1e12 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let ms = Workflow.measure_seed ~rng:(Prng.create 16) ~epsilon:1e6 ~sym in
  let fitted = Workflow.fit_degrees_pava_only ms in
  let truth = Graph.degree_sequence_desc secret in
  Array.iteri
    (fun i d -> Alcotest.(check int) (Printf.sprintf "degree[%d]" i) d fitted.(i))
    truth

let test_seed_graph_degrees () =
  let degrees = Array.of_list (List.init 40 (fun i -> 1 + (i mod 4))) in
  let g = Workflow.seed_graph ~rng:(Prng.create 17) ~degrees in
  Alcotest.(check bool) "most stubs realized" true
    (2 * Graph.m g > 80 * 85 / 100)

let test_jdd_fit_recovers_assortativity () =
  (* The workshop-paper workflow: fitting the JDD measurement pulls the
     synthetic graph's assortativity toward the (strongly assortative)
     secret's. *)
  let secret = Gen.clustered ~n:120 ~community:10 ~p_in:0.8 ~extra:40 (Prng.create 21) in
  let budget = Budget.create ~name:"g" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let m =
    Batch.noisy_count ~rng:(Prng.create 22) ~epsilon:1e4
      (let module QB = Wpinq_queries.Queries.Make (Wpinq_core.Batch) in
       QB.jdd sym)
  in
  let seed = Rewire.randomize secret (Prng.create 23) in
  let fit = fit_to ~rng:(Prng.create 24) ~seed_graph:seed Qp.jdd m in
  let r0 = Graph.assortativity (Fit.graph fit) in
  let _ = Fit.run fit ~steps:15_000 ~pow:5_000.0 () in
  let r1 = Graph.assortativity (Fit.graph fit) in
  let truth = Graph.assortativity secret in
  Alcotest.(check bool)
    (Printf.sprintf "assortativity %.3f -> %.3f (truth %.3f)" r0 r1 truth)
    true
    (r1 > r0 +. 0.1 && r1 > truth /. 2.0)

let test_workflow_jdd_and_sbi_costs () =
  check_close "jdd cost" 0.4 (Workflow.query_cost Workflow.Jdd 0.1);
  check_close "sbi cost" 0.6 (Workflow.query_cost Workflow.Sbi 0.1)

let test_synthesize_end_to_end () =
  let secret = Gen.clustered ~n:80 ~community:8 ~p_in:0.8 ~extra:40 (Prng.create 18) in
  let r =
    Workflow.synthesize ~rng:(Prng.create 19) ~epsilon:0.5 ~query:(Some Workflow.Tbi)
      ~steps:5_000 ~trace_every:1_000 ~secret ()
  in
  check_close "total epsilon = 7 eps" 3.5 r.Workflow.total_epsilon;
  Alcotest.(check int) "trace points" 6 (List.length r.Workflow.trace);
  Alcotest.(check bool) "seed degrees preserved in synthetic" true
    (Graph.degree_sequence_desc r.Workflow.seed
    = Graph.degree_sequence_desc r.Workflow.synthetic);
  (* Phase-1-only run spends 3 eps and skips the walk. *)
  let r1 =
    Workflow.synthesize ~rng:(Prng.create 20) ~epsilon:0.5 ~query:None ~secret ()
  in
  check_close "seed-only epsilon" 1.5 r1.Workflow.total_epsilon;
  Alcotest.(check int) "no steps" 0 r1.Workflow.stats.Mcmc.steps

(* ---- Released measurement bits ---- *)

(* MD5 of a measurement's released support as (record, weight bits) pairs.
   Supports are in sorted-record order, so the digest pins both the released
   values and the order their noise was drawn in. *)
let support_digest m =
  Measurement.support m
  |> List.map (fun (x, v) -> (x, Int64.bits_of_float v))
  |> (fun l -> Marshal.to_string l [ Marshal.No_sharing ])
  |> Digest.string |> Digest.to_hex

(* Every Phase-0 release over a small fixed graph: the three seed
   measurements, then the five query measurements in target order. *)
let released_digests edges =
  let budget = Budget.create ~name:"g" 1e12 in
  let sym = Batch.source_records ~budget edges in
  let rng = Prng.create 2024 in
  let ms = Workflow.measure_seed ~rng ~epsilon:0.5 ~sym in
  let qms =
    Workflow.measure_queries ~rng ~epsilon:0.5 ~sym
      Workflow.[ Tbd 1; Tbd 20; Tbi; Sbi; Jdd ]
  in
  let _, measured = Workflow.shared_measured qms in
  [ support_digest ms.deg_seq; support_digest ms.ccdf; support_digest ms.node_count ]
  @ List.map (fun (Fit.Measured (_, m)) -> support_digest m) measured

let pinned_edges () =
  Graph.directed_edges (Wpinq_data.Datasets.load ~scale:0.1 Wpinq_data.Datasets.grqc)

(* Pinned across implementations of the batch operators: [Wdata]/[Ops]
   sum exact 2^-40 grid ints, rounding each contribution once with the
   engine's formulas, so no change to how they store or traverse records
   may move a single released bit. *)
let pinned_release_digests =
  [
    "9f91c2d7e6604ed3093b35146625a8f2";
    "5dd28cc62d4ca27c7ed7270ef57ae487";
    "eeb9bb5eb337f93551575a2aacf47603";
    "65bb63a670a23559712566780b20b8ad";
    "a5712ccf929cadb8de6a8414acd652ed";
    "7a52bc9a60cc96a3c8a5210843bcfe24";
    "39e8732e7a92cc8858985950c50a48ae";
    "f671671693cf0e81ad55f86d0eb4a281";
  ]

let test_release_bits_pinned () =
  Alcotest.(check (list string))
    "released supports" pinned_release_digests
    (released_digests (pinned_edges ()))

let test_release_bits_row_order () =
  let edges = Array.of_list (pinned_edges ()) in
  Prng.shuffle (Prng.create 77) edges;
  Alcotest.(check (list string))
    "permuted edge list" pinned_release_digests
    (released_digests (Array.to_list edges))

let suite =
  [
    Alcotest.test_case "mcmc greedy descends" `Quick test_mcmc_greedy_descends;
    Alcotest.test_case "mcmc rejects worse at high pow" `Quick test_mcmc_always_accepts_improvement;
    Alcotest.test_case "mcmc invalid proposals" `Quick test_mcmc_invalid_proposals;
    Alcotest.test_case "mcmc on_step" `Quick test_mcmc_on_step_called;
    Alcotest.test_case "mcmc non-finite energy refresh" `Quick
      test_mcmc_nonfinite_energy_refreshes;
    Alcotest.test_case "mcmc start offset" `Quick test_mcmc_start_offset;
    Alcotest.test_case "mcmc checkpoint hook" `Quick test_mcmc_checkpoint_hook;
    Alcotest.test_case "fit: zero energy on perfect seed" `Quick test_fit_energy_matches_distance;
    Alcotest.test_case "fit: no incremental drift" `Quick test_fit_step_revert_consistency;
    Alcotest.test_case "fit: triangles rise" `Slow test_fit_improves_triangles;
    Alcotest.test_case "workflow costs" `Quick test_workflow_costs;
    Alcotest.test_case "fit_degrees exact at low noise" `Quick test_fit_degrees_low_noise;
    Alcotest.test_case "pava-only fit at low noise" `Quick test_fit_degrees_pava_only_low_noise;
    Alcotest.test_case "seed graph realizes degrees" `Quick test_seed_graph_degrees;
    Alcotest.test_case "jdd fit recovers assortativity" `Slow test_jdd_fit_recovers_assortativity;
    Alcotest.test_case "jdd/sbi costs" `Quick test_workflow_jdd_and_sbi_costs;
    Alcotest.test_case "released bits pinned" `Quick test_release_bits_pinned;
    Alcotest.test_case "released bits ignore row order" `Quick test_release_bits_row_order;
    Alcotest.test_case "synthesize end-to-end" `Slow test_synthesize_end_to_end;
  ]
