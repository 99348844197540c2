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
module Q = Wpinq_queries.Queries.Make (Wpinq_core.Batch)
module Qf = Wpinq_queries.Queries.Make (Wpinq_core.Flow)
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

let test_mcmc_greedy_descends () =
  let target, state, energy = toy_problem () in
  let rng = Prng.create 1 in
  let stats =
    Mcmc.run ~rng ~steps:3000 ~pow:50.0 ~energy
      ~propose:(fun () ->
        let i = Prng.int rng 5 in
        let d = if Prng.bool rng then 1 else -1 in
        Some (i, d))
      ~apply:(fun (i, d) -> state.(i) <- state.(i) + d)
      ~revert:(fun (i, d) -> state.(i) <- state.(i) - d)
      ()
  in
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
  let stats =
    Mcmc.run ~rng:(Prng.create 2) ~steps:200 ~pow:1e9 ~energy
      ~propose:(fun () -> Some 0)
      ~apply:(fun _ -> state.(0) <- state.(0) + 1)
      ~revert:(fun _ -> state.(0) <- state.(0) - 1)
      ()
  in
  Alcotest.(check int) "never accepted" 0 stats.Mcmc.accepted;
  Alcotest.(check int) "state reverted" 4 state.(0)

let test_mcmc_invalid_proposals () =
  let _, _, energy = toy_problem () in
  let stats =
    Mcmc.run ~rng:(Prng.create 3) ~steps:50 ~energy
      ~propose:(fun () -> None)
      ~apply:(fun () -> ())
      ~revert:(fun () -> ())
      ()
  in
  Alcotest.(check int) "all invalid" 50 stats.Mcmc.invalid;
  Alcotest.(check int) "none accepted" 0 stats.Mcmc.accepted

let test_mcmc_on_step_called () =
  let _, _, energy = toy_problem () in
  let calls = ref 0 in
  let _ =
    Mcmc.run ~rng:(Prng.create 4) ~steps:25 ~energy
      ~on_step:(fun ~step:_ ~energy:_ -> incr calls)
      ~propose:(fun () -> None)
      ~apply:(fun () -> ())
      ~revert:(fun () -> ())
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
  let stats =
    Mcmc.run ~rng:(Prng.create 5) ~steps:10 ~pow:1e9
      ~refresh:(fun () ->
        incr refreshes;
        poisoned := false)
      ~energy
      ~propose:(fun () -> Some ())
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
  Alcotest.(check int) "one non-finite refresh" 1 stats.Mcmc.refreshed_on_nonfinite;
  Alcotest.(check int) "refresh callback ran" 1 !refreshes;
  Alcotest.(check bool) "final energy finite" true (Float.is_finite stats.Mcmc.final_energy)

let test_mcmc_start_offset () =
  (* A resumed chain passes ?start: only steps start+1..steps run, and the
     per-segment counters reflect just that segment. *)
  let calls = ref [] in
  let _, _, energy = toy_problem () in
  let stats =
    Mcmc.run ~rng:(Prng.create 6) ~steps:10 ~start:7 ~energy
      ~on_step:(fun ~step ~energy:_ -> calls := step :: !calls)
      ~propose:(fun () -> None)
      ~apply:(fun () -> ())
      ~revert:(fun () -> ())
      ()
  in
  Alcotest.(check (list int)) "steps run" [ 10; 9; 8 ] !calls;
  Alcotest.(check int) "segment length" 3 stats.Mcmc.steps;
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Mcmc.run: start must be within [0, steps]") (fun () ->
      ignore
        (Mcmc.run ~rng:(Prng.create 6) ~steps:5 ~start:6 ~energy
           ~propose:(fun () -> None)
           ~apply:(fun () -> ())
           ~revert:(fun () -> ())
           ()))

let test_mcmc_checkpoint_hook () =
  let _, _, energy = toy_problem () in
  let fired = ref [] in
  let _ =
    Mcmc.run ~rng:(Prng.create 7) ~steps:10 ~energy ~checkpoint_every:3
      ~on_checkpoint:(fun ~step ~stats -> fired := (step, stats.Mcmc.steps) :: !fired)
      ~propose:(fun () -> None)
      ~apply:(fun () -> ())
      ~revert:(fun () -> ())
      ()
  in
  (* Fires at multiples of 3 but never at the final step (here step 9 <
     steps, so all three fire; a cadence hitting 10 exactly would skip). *)
  Alcotest.(check (list (pair int int)))
    "fired at cadence" [ (9, 9); (6, 6); (3, 3) ] !fired

(* ---- Fit ---- *)

let tbi_target secret epsilon rng =
  let budget = Budget.create ~name:"g" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let m = Batch.noisy_count ~rng ~epsilon (Q.tbi sym) in
  fun sym_flow -> Flow.Target.create (Qf.tbi sym_flow) m

let test_fit_energy_matches_distance () =
  (* Seed == secret and negligible noise: energy ~ 0. *)
  let secret = Gen.clustered ~n:80 ~community:8 ~p_in:0.7 ~extra:40 (Prng.create 5) in
  let rng = Prng.create 6 in
  let target = tbi_target secret 1e6 rng in
  let fit = Fit.create ~rng ~seed_graph:secret ~targets:[ target ] () in
  Alcotest.(check bool) "perfect seed, ~zero energy" true (Fit.energy fit < 1.0)

let test_fit_step_revert_consistency () =
  (* After any number of steps, incremental energy equals a fresh recompute. *)
  let secret = Gen.clustered ~n:60 ~community:8 ~p_in:0.7 ~extra:30 (Prng.create 7) in
  let seed = Rewire.randomize secret (Prng.create 8) in
  let rng = Prng.create 9 in
  let target = tbi_target secret 1e4 rng in
  let fit = Fit.create ~rng ~seed_graph:seed ~targets:[ target ] () in
  for _ = 1 to 200 do
    ignore (Fit.step ~pow:5.0 fit)
  done;
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
  let target = tbi_target secret 100.0 rng in
  let fit = Fit.create ~rng ~seed_graph:seed ~targets:[ target ] () in
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
  let fit =
    Fit.create ~rng:(Prng.create 24) ~seed_graph:seed
      ~targets:[ (fun sym_flow -> Flow.Target.create (Qf.jdd sym_flow) m) ]
      ()
  in
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

(* Pinned across implementations of the batch operators: a change to how
   [Wdata]/[Ops] accumulate must not move a single released bit. *)
let pinned_release_digests =
  [
    "9f91c2d7e6604ed3093b35146625a8f2";
    "5dd28cc62d4ca27c7ed7270ef57ae487";
    "eeb9bb5eb337f93551575a2aacf47603";
    "60daf79469ddb1ec14643bc01a0fd06f";
    "9cd21a0da92ec04738354ef0bbac6240";
    "d271b9f76552401ff67222be4452669f";
    "ad1b5a0d89380e0e6ef62699ce38434a";
    "3be4aae4a671d9aeb13520f28c42e303";
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
