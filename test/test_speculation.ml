(* The speculation protocol's contract: (begin; feed; abort) restores the
   engine — operator state, sink contents, statistics — bit-identically,
   and (begin; feed; commit) is indistinguishable from a plain feed.  Plus
   protocol-misuse guards and the scoring layer's enrollment in the undo
   log (Flow.Target distances). *)

module Wdata = Wpinq_weighted.Wdata
module Ops = Wpinq_weighted.Ops
module Dataflow = Wpinq_dataflow.Dataflow
module Prng = Wpinq_prng.Prng
module Flow = Wpinq_core.Flow
module Measurement = Wpinq_core.Measurement
module Fit = Wpinq_infer.Fit
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Q = Wpinq_queries.Queries.Make (Wpinq_core.Batch)
module Plan = Wpinq_core.Plan
module Qp = Wpinq_queries.Queries.Make (Plan)
open Helpers

(* Bit-exact image of a weighted collection: restoration must reproduce
   the very same floats, not merely close ones. *)
let bits_of_list l = List.sort compare (List.map (fun (x, w) -> (x, Int64.bits_of_float w)) l)

(* Abort restores state, [state_records] with it; the traffic counters
   keep what the rejected propagation did, so they never fall. *)
let stats e = Dataflow.Engine.state_records e
let traffic e = Dataflow.Engine.(work e, records_propagated e)

(* (feed; abort) leaves no trace; (feed; commit) matches batch semantics.
   Run both legs against every delta of a random sequence, on the same
   pipelines the equivalence suite exercises. *)
let spec_roundtrip name ~build ~batch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name (deltas_arb ()) (fun deltas ->
         let engine = Dataflow.Engine.create () in
         let input = Dataflow.Input.create engine in
         let sink = Dataflow.Sink.attach (build (Dataflow.Input.node input)) in
         List.for_all
           (fun delta ->
             let sink0 = bits_of_list (Dataflow.Sink.to_list sink) in
             let input0 = bits_of_list (Wdata.to_list (Dataflow.Input.current input)) in
             let stats0 = stats engine and traffic0 = traffic engine in
             let aborts0 = Dataflow.Engine.aborts engine in
             Dataflow.Engine.begin_speculation engine;
             Dataflow.Input.feed input delta;
             Dataflow.Engine.abort engine;
             let restored =
               bits_of_list (Dataflow.Sink.to_list sink) = sink0
               && bits_of_list (Wdata.to_list (Dataflow.Input.current input)) = input0
               && stats engine = stats0
               && traffic engine >= traffic0
               && Dataflow.Engine.aborts engine = aborts0 + 1
               && not (Dataflow.Engine.speculating engine)
             in
             Dataflow.Engine.begin_speculation engine;
             Dataflow.Input.feed input delta;
             Dataflow.Engine.commit engine;
             restored
             && Wdata.equal ~tol:0.0
                  (batch (Dataflow.Input.current input))
                  (Dataflow.Sink.current sink))
           deltas))

let roundtrip_suite =
  [
    spec_roundtrip "abort restores / commit=batch: select"
      ~build:(Dataflow.select (fun x -> x mod 3))
      ~batch:(Ops.select (fun x -> x mod 3));
    spec_roundtrip "abort restores / commit=batch: group_by"
      ~build:(Dataflow.group_by ~key:(fun x -> x mod 2) ~reduce:(fun l -> List.sort compare l))
      ~batch:(Ops.group_by ~key:(fun x -> x mod 2) ~reduce:(fun l -> List.sort compare l));
    spec_roundtrip "abort restores / commit=batch: shave"
      ~build:(Dataflow.shave_const 0.7) ~batch:(Ops.shave_const 0.7);
    spec_roundtrip "abort restores / commit=batch: distinct"
      ~build:(Dataflow.distinct ~bound:1.5)
      ~batch:(Ops.distinct ~bound:1.5);
    spec_roundtrip "abort restores / commit=batch: self-join"
      ~build:(fun n ->
        Dataflow.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3)
          ~reduce:(fun x y -> (x, y))
          n n)
      ~batch:(fun d ->
        Ops.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3) ~reduce:(fun x y -> (x, y)) d d);
    spec_roundtrip "abort restores / commit=batch: join-of-groupby"
      ~build:(fun n ->
        let degs = Dataflow.group_by ~key:(fun x -> x mod 3) ~reduce:List.length n in
        Dataflow.join
          ~kl:(fun x -> x mod 3)
          ~kr:(fun (k, _) -> k)
          ~reduce:(fun x (_, c) -> (x, c))
          n degs)
      ~batch:(fun d ->
        let degs = Ops.group_by ~key:(fun x -> x mod 3) ~reduce:List.length d in
        Ops.join
          ~kl:(fun x -> x mod 3)
          ~kr:(fun (k, _) -> k)
          ~reduce:(fun x (_, c) -> (x, c))
          d degs);
  ]

(* Several speculations in a row on one engine, mixing outcomes: aborts
   must restore to the last committed state, not to creation time. *)
let test_interleaved_speculations () =
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let sink =
    Dataflow.Sink.attach
      (Dataflow.group_by ~key:(fun x -> x mod 2) ~reduce:List.length (Dataflow.Input.node input))
  in
  Dataflow.Input.feed input [ (1, 1.0); (2, 2.0) ];
  Dataflow.Engine.begin_speculation engine;
  Dataflow.Input.feed input [ (3, 1.5) ];
  Dataflow.Engine.commit engine;
  let committed = bits_of_list (Dataflow.Sink.to_list sink) in
  Dataflow.Engine.begin_speculation engine;
  Dataflow.Input.feed input [ (1, -1.0); (4, 0.25) ];
  Dataflow.Engine.abort engine;
  Alcotest.(check bool) "abort lands on the committed state" true
    (bits_of_list (Dataflow.Sink.to_list sink) = committed);
  Alcotest.(check int) "one commit" 1 (Dataflow.Engine.commits engine);
  Alcotest.(check int) "one abort" 1 (Dataflow.Engine.aborts engine);
  Alcotest.(check bool) "undo cells were recorded" true (Dataflow.Engine.undo_cells engine > 0)

let test_protocol_misuse () =
  let engine = Dataflow.Engine.create () in
  Alcotest.check_raises "commit without begin"
    (Invalid_argument "Dataflow.Engine.commit: no speculation in progress") (fun () ->
      Dataflow.Engine.commit engine);
  Alcotest.check_raises "abort without begin"
    (Invalid_argument "Dataflow.Engine.abort: no speculation in progress") (fun () ->
      Dataflow.Engine.abort engine);
  Dataflow.Engine.begin_speculation engine;
  Alcotest.check_raises "nested begin"
    (Invalid_argument "Dataflow.Engine.begin_speculation: speculation already in progress")
    (fun () -> Dataflow.Engine.begin_speculation engine);
  Dataflow.Engine.commit engine

let test_protocol_rejected_during_propagation () =
  (* The protocol calls are engine-level control flow; from inside a sink
     callback the propagation is still in flight, so all three refuse. *)
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let sink = Dataflow.Sink.attach (Dataflow.Input.node input) in
  let attempt = ref (fun () -> ()) in
  Dataflow.Sink.on_change sink (fun _ ~old_weight:_ ~new_weight:_ -> !attempt ());
  attempt := (fun () -> Dataflow.Engine.begin_speculation engine);
  Alcotest.check_raises "begin during propagation"
    (Invalid_argument "Dataflow.Engine.begin_speculation: cannot speculate during propagation")
    (fun () -> Dataflow.Input.feed input [ (1, 1.0) ]);
  attempt := (fun () -> ());
  Dataflow.Engine.begin_speculation engine;
  attempt := (fun () -> Dataflow.Engine.commit engine);
  Alcotest.check_raises "commit during propagation"
    (Invalid_argument "Dataflow.Engine.commit: cannot commit during propagation") (fun () ->
      Dataflow.Input.feed input [ (2, 1.0) ]);
  attempt := (fun () -> ());
  (* The speculation is still open (the guard fired mid-propagation);
     abort must clean up even after that partial feed. *)
  Dataflow.Engine.abort engine;
  Dataflow.Input.feed input [ (3, 1.0) ];
  Alcotest.(check bool) "engine usable after recovery" true
    (Dataflow.Sink.weight sink 3 = 1.0)

(* The scoring layer's incrementally maintained distance joins the
   rollback through Engine.log_undo. *)
let test_target_distance_restored () =
  let engine = Dataflow.Engine.create () in
  let handle, sym = Flow.input engine in
  let rng = Prng.create 123 in
  let m =
    Measurement.create ~rng ~epsilon:0.5 ~true_data:(Wdata.of_list [ (1, 2.0); (2, 1.0) ])
  in
  let target = Flow.Target.create (Flow.select (fun x -> x mod 5) sym) m in
  Flow.feed handle [ (1, 1.0); (6, 1.0); (2, 3.0) ];
  let d0 = Int64.bits_of_float (Flow.Target.distance target) in
  Dataflow.Engine.begin_speculation engine;
  Flow.feed handle [ (1, -1.0); (3, 2.0); (7, 0.5) ];
  let mid = Int64.bits_of_float (Flow.Target.distance target) in
  Dataflow.Engine.abort engine;
  Alcotest.(check bool) "distance moved during speculation" true (mid <> d0);
  Alcotest.(check bool) "distance restored bit-exactly" true
    (Int64.bits_of_float (Flow.Target.distance target) = d0);
  (* A committed speculation carries the same drift guarantees as a plain
     feed: recompute agrees with the incremental value. *)
  Dataflow.Engine.begin_speculation engine;
  Flow.feed handle [ (1, -1.0); (3, 2.0) ];
  Dataflow.Engine.commit engine;
  let incremental = Flow.Target.distance target in
  Flow.Target.recompute target;
  check_close ~tol:1e-9 "incremental matches recompute after commit" (Flow.Target.distance target)
    incremental

(* End to end: every Metropolis–Hastings step is exactly one speculation —
   accepted moves commit, rejected ones abort — and the incremental energy
   stays honest across the mixture. *)
let test_fit_steps_are_speculations () =
  let secret = Gen.clustered ~n:60 ~community:8 ~p_in:0.7 ~extra:30 (Prng.create 7) in
  let seed = Rewire.randomize secret (Prng.create 8) in
  let rng = Prng.create 9 in
  let m =
    let budget = Budget.create ~name:"spec" 1e9 in
    let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
    Batch.noisy_count ~rng ~epsilon:1e4 (Q.tbi sym)
  in
  let source = Plan.source ~name:"sym" () in
  let fit =
    Fit.create_shared ~rng ~seed_graph:seed ~source ~measured:[ Fit.Measured (Qp.tbi source, m) ] ()
  in
  let engine = Fit.engine fit in
  let accepted = (Fit.run fit ~steps:300 ~pow:50.0 ()).Wpinq_infer.Mcmc.accepted in
  Alcotest.(check int) "accepted moves commit" accepted (Dataflow.Engine.commits engine);
  Alcotest.(check bool) "rejected moves abort" true (Dataflow.Engine.aborts engine > 0);
  Alcotest.(check bool) "commits+aborts cover proposals" true
    (Dataflow.Engine.commits engine + Dataflow.Engine.aborts engine <= 300);
  Alcotest.(check bool) "no speculation left open" true
    (not (Dataflow.Engine.speculating engine));
  let incremental = Fit.energy fit in
  List.iter Flow.Target.recompute (Fit.targets fit);
  let fresh =
    List.fold_left (fun acc t -> acc +. Flow.Target.weighted_distance t) 0.0 (Fit.targets fit)
  in
  check_close ~tol:1e-3 "energy honest across commit/abort mixture" fresh incremental

let suite =
  [
    Alcotest.test_case "interleaved speculations" `Quick test_interleaved_speculations;
    Alcotest.test_case "protocol misuse" `Quick test_protocol_misuse;
    Alcotest.test_case "protocol during propagation" `Quick
      test_protocol_rejected_during_propagation;
    Alcotest.test_case "target distance restored" `Quick test_target_distance_restored;
    Alcotest.test_case "fit steps are speculations" `Quick test_fit_steps_are_speculations;
  ]
  @ roundtrip_suite
