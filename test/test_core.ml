(* Budget accounting, use-counting through query plans, NoisyCount
   semantics, and the Flow/Target scoring machinery. *)

module Wdata = Wpinq_weighted.Wdata
module Prng = Wpinq_prng.Prng
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Measurement = Wpinq_core.Measurement
module Dataflow = Wpinq_dataflow.Dataflow
open Helpers

let test_budget_basics () =
  let b = Budget.create ~name:"d" 1.0 in
  check_close "remaining" 1.0 (Budget.remaining b);
  Budget.charge b 0.25;
  Budget.charge ~label:"second" b 0.5;
  check_close "spent" 0.75 (Budget.spent b);
  Alcotest.(check (list (pair string (float 1e-9))))
    "log"
    [ ("noisy_count", 0.25); ("second", 0.5) ]
    (Budget.log b)

let test_budget_exhausted () =
  let b = Budget.create ~name:"d" 0.3 in
  Budget.charge b 0.2;
  (try
     Budget.charge b 0.2;
     Alcotest.fail "expected Exhausted"
   with Budget.Exhausted { name; requested; remaining } ->
     Alcotest.(check string) "name" "d" name;
     check_close "requested" 0.2 requested;
     check_close "remaining" 0.1 remaining);
  (* Failed charge spends nothing. *)
  check_close "unchanged" 0.2 (Budget.spent b)

let test_budget_rounding_tolerance () =
  let b = Budget.create ~name:"d" 0.3 in
  Budget.charge b 0.1;
  Budget.charge b 0.1;
  Budget.charge b 0.1;
  (* 3 * 0.1 > 0.3 in floats; the tolerance must allow exact exhaustion. *)
  check_close ~tol:1e-9 "fully spent" 0.3 (Budget.spent b)

let test_use_counting () =
  let b = Budget.create ~name:"edges" 100.0 in
  let edges = Batch.source_records ~budget:b [ (0, 1); (1, 2) ] in
  let uses c = match Batch.uses c with [ (_, n) ] -> n | _ -> -1 in
  Alcotest.(check int) "source" 1 (uses edges);
  Alcotest.(check int) "select" 1 (uses (Batch.select fst edges));
  Alcotest.(check int) "self-join" 2
    (uses (Batch.join ~kl:snd ~kr:fst ~reduce:(fun x _ -> x) edges edges));
  let sym = Batch.concat (Batch.select (fun (a, b) -> (b, a)) edges) edges in
  Alcotest.(check int) "symmetrized" 2 (uses sym);
  let paths = Batch.join ~kl:snd ~kr:fst ~reduce:(fun x _ -> x) sym sym in
  Alcotest.(check int) "paths over sym" 4 (uses paths);
  Alcotest.(check int) "public data costs nothing" 0
    (List.length (Batch.uses (Batch.public [ (1, 1.0) ])))

let test_use_counting_two_sources () =
  let b1 = Budget.create ~name:"a" 10.0 and b2 = Budget.create ~name:"b" 10.0 in
  let c1 = Batch.source ~budget:b1 [ (1, 1.0) ] in
  let c2 = Batch.source ~budget:b2 [ (1, 1.0) ] in
  let j = Batch.join ~kl:(fun x -> x) ~kr:(fun x -> x) ~reduce:(fun x _ -> x) c1 (Batch.concat c2 c1) in
  let costs = List.sort compare (Batch.privacy_cost ~epsilon:0.5 j) in
  Alcotest.(check (list (pair string (float 1e-9))))
    "per-source cost"
    [ ("a", 1.0); ("b", 0.5) ]
    costs

let test_noisy_count_charges () =
  let b = Budget.create ~name:"edges" 1.0 in
  let edges = Batch.source_records ~budget:b [ (0, 1) ] in
  let self_join = Batch.join ~kl:snd ~kr:fst ~reduce:(fun x _ -> x) edges edges in
  let rng = Prng.create 1 in
  let _m = Batch.noisy_count ~rng ~epsilon:0.3 self_join in
  check_close "2 uses at 0.3" 0.6 (Budget.spent b);
  (* Second aggregation would need another 0.6 > 0.4 remaining. *)
  (try
     ignore (Batch.noisy_count ~rng ~epsilon:0.3 self_join);
     Alcotest.fail "expected Exhausted"
   with Budget.Exhausted _ -> ());
  check_close "failed charge rolls back" 0.6 (Budget.spent b)

let test_noisy_count_accuracy () =
  (* With a large epsilon the noise is negligible: counts match the data. *)
  let b = Budget.create ~name:"d" 1e12 in
  let c = Batch.source ~budget:b [ (1, 0.75); (2, 2.0) ] in
  let m = Batch.noisy_count ~rng:(Prng.create 2) ~epsilon:1e9 c in
  check_close ~tol:1e-6 "value 1" 0.75 (Measurement.value m 1);
  check_close ~tol:1e-6 "value 2" 2.0 (Measurement.value m 2);
  Alcotest.(check bool) "absent record gets small noise" true
    (Float.abs (Measurement.value m 99) < 1e-6)

let test_noisy_count_noise_distribution () =
  (* Empirical check that NoisyCount noise is Laplace(1/eps): mean |noise|
     should approach 1/eps. *)
  let eps = 0.5 in
  let b = Budget.create ~name:"d" 1e9 in
  let c = Batch.source ~budget:b (List.init 2000 (fun i -> (i, 1.0))) in
  let m = Batch.noisy_count ~rng:(Prng.create 3) ~epsilon:eps c in
  let total = ref 0.0 in
  for i = 0 to 1999 do
    total := !total +. Float.abs (Measurement.value m i -. 1.0)
  done;
  let mad = !total /. 2000.0 in
  Alcotest.(check bool) "E|noise| ~ 1/eps" true (Float.abs (mad -. (1.0 /. eps)) < 0.15)

let test_measurement_memoization () =
  let b = Budget.create ~name:"d" 1e9 in
  let c = Batch.source ~budget:b [ (1, 1.0) ] in
  let m = Batch.noisy_count ~rng:(Prng.create 4) ~epsilon:0.5 c in
  let v = Measurement.value m 42 in
  check_close "memoized" v (Measurement.value m 42);
  Alcotest.(check int) "materialized" 2 (Measurement.observed_size m)

let test_unsafe_value () =
  let b = Budget.create ~name:"d" 1.0 in
  let c = Batch.source ~budget:b [ (1, 0.75) ] in
  check_close "exact" 0.75 (Wdata.weight (Batch.unsafe_value c) 1);
  (* Reading the exact value spends nothing (it is explicitly unsafe). *)
  check_close "no charge" 0.0 (Budget.spent b)

(* User data outside the grid's range (±2^22) is refused with the typed
   [Grid.Overflow], never released: a source weight that large, and a
   select whose in-range records sum past it. *)
(* A refusal depends on the data, so it is itself an observation: each
   refused call debits its ε exactly once and releases no measurement. *)
let test_batch_range () =
  let b = Budget.create ~name:"d" 1e9 in
  let refused name c =
    let debits = List.length (Budget.log b) and spent = Budget.spent b in
    (match Batch.noisy_count ~rng:(Prng.create 4) ~epsilon:0.5 c with
    | exception Wpinq_weighted.Grid.Overflow _ -> ()
    | _ -> Alcotest.failf "%s: released a count" name);
    Alcotest.(check int) (name ^ ": one debit") (debits + 1) (List.length (Budget.log b));
    check_close (name ^ ": epsilon spent") (spent +. 0.5) (Budget.spent b)
  in
  refused "source weight 2^22" (Batch.source ~budget:b [ (1, 1.0); (2, 0x1p22) ]);
  let rows = [ (1, 0x1.8p21); (2, 0x1.8p21); (3, 1.0) ] in
  ignore (Batch.noisy_count ~rng:(Prng.create 4) ~epsilon:0.5 (Batch.source ~budget:b rows));
  refused "select summing past 2^22" (Batch.select (fun _ -> ()) (Batch.source ~budget:b rows))

let test_partition_contents () =
  let b = Budget.create ~name:"d" 10.0 in
  let c = Batch.source ~budget:b [ (1, 1.0); (2, 2.0); (3, 3.0); (4, 4.0) ] in
  let parts = Batch.partition ~keys:[ 0; 1 ] ~key:(fun x -> x mod 2) c in
  (match parts with
  | [ (0, evens); (1, odds) ] ->
      check_close "evens" 6.0 (Wdata.total (Batch.unsafe_value evens));
      check_close "odds" 4.0 (Wdata.total (Batch.unsafe_value odds))
  | _ -> Alcotest.fail "expected two parts");
  (* Unlisted keys are dropped. *)
  let only_even = Batch.partition ~keys:[ 0 ] ~key:(fun x -> x mod 2) c in
  match only_even with
  | [ (0, evens) ] ->
      Alcotest.(check int) "support" 2 (Wdata.support_size (Batch.unsafe_value evens))
  | _ -> Alcotest.fail "expected one part"

let test_parallel_composition () =
  let b = Budget.create ~name:"d" 1.0 in
  let c = Batch.source ~budget:b [ (1, 1.0); (2, 1.0) ] in
  let parts = Batch.partition ~keys:[ 0; 1 ] ~key:(fun x -> x mod 2) c in
  let evens = List.assoc 0 parts and odds = List.assoc 1 parts in
  let rng = Prng.create 30 in
  (* Spending on disjoint parts costs the parent only the maximum. *)
  let _ = Batch.noisy_count ~rng ~epsilon:0.3 evens in
  check_close "parent pays 0.3" 0.3 (Budget.spent b);
  let _ = Batch.noisy_count ~rng ~epsilon:0.5 odds in
  check_close "parent pays max(0.3,0.5)" 0.5 (Budget.spent b);
  let _ = Batch.noisy_count ~rng ~epsilon:0.4 evens in
  (* evens cumulative 0.7 > group max 0.5: parent pays the 0.2 excess. *)
  check_close "parent pays max(0.7,0.5)" 0.7 (Budget.spent b);
  (* Sequential composition still applies across different partitions. *)
  let parts2 = Batch.partition ~keys:[ 0; 1 ] ~key:(fun x -> x mod 2) c in
  let _ = Batch.noisy_count ~rng ~epsilon:0.3 (List.assoc 0 parts2) in
  check_close "second partition adds" 1.0 (Budget.spent b);
  (* Exhaustion propagates from the parent. *)
  (try
     ignore (Batch.noisy_count ~rng ~epsilon:0.5 (List.assoc 1 parts2));
     Alcotest.fail "expected Exhausted"
   with Budget.Exhausted _ -> ());
  check_close "parent unchanged after failure" 1.0 (Budget.spent b);
  (* A sibling can still reuse headroom below the group max for free. *)
  let _ = Batch.noisy_count ~rng ~epsilon:0.3 (List.assoc 1 parts2) in
  check_close "free ride under group max" 1.0 (Budget.spent b)

(* Batch and Flow agree on a composite query over the same data. *)
let test_batch_flow_agree () =
  let data = [ ((0, 1), 1.0); ((1, 0), 1.0); ((1, 2), 1.0); ((2, 1), 1.0) ] in
  let module Q (L : Wpinq_core.Lang.S) = struct
    let run edges =
      let degs = L.group_by ~key:fst ~reduce:List.length edges in
      L.join ~kl:snd ~kr:(fun (k, _) -> k)
        ~reduce:(fun (a, b) (_, d) -> (a, b, d))
        edges degs
  end in
  let module Qb = Q (Batch) in
  let module Qf = Q (Flow) in
  let b = Budget.create ~name:"edges" 1.0 in
  let batch_result = Batch.unsafe_value (Qb.run (Batch.source ~budget:b data)) in
  let engine = Dataflow.Engine.create () in
  let handle, edges = Flow.input engine in
  let sink = Dataflow.Sink.attach (Flow.node (Qf.run edges)) in
  Flow.feed handle data;
  let pp fmt (a, b, d) = Format.fprintf fmt "(%d,%d,%d)" a b d in
  check_wdata ~tol:0.0 pp "batch = flow" batch_result (Dataflow.Sink.current sink)

(* Target scoring: with negligible noise, distance tracks the true L1 gap. *)
let test_target_distance () =
  let secret = [ (1, 2.0); (2, 1.0) ] in
  let b = Budget.create ~name:"d" 1e12 in
  let m =
    Batch.noisy_count ~rng:(Prng.create 5) ~epsilon:1e9 (Batch.source ~budget:b secret)
  in
  let engine = Dataflow.Engine.create () in
  let handle, c = Flow.input engine in
  let target = Flow.Target.create c m in
  (* Empty synthetic data: distance = |2| + |1| = 3. *)
  check_close ~tol:1e-6 "initial distance" 3.0 (Flow.Target.distance target);
  Flow.feed handle [ (1, 2.0) ];
  check_close ~tol:1e-6 "after matching 1" 1.0 (Flow.Target.distance target);
  Flow.feed handle [ (2, 1.0) ];
  check_close ~tol:1e-6 "perfect fit" 0.0 (Flow.Target.distance target);
  (* A record the measurement never saw enters with ~zero observation:
     distance rises by ~|q| - |m| = q. *)
  Flow.feed handle [ (9, 0.5) ];
  check_close ~tol:1e-5 "unobserved record" 0.5 (Flow.Target.distance target);
  check_close ~tol:100.0 "weighted" (1e9 *. 0.5) (Flow.Target.weighted_distance target);
  Flow.Target.recompute target;
  check_close ~tol:1e-5 "recompute agrees" 0.5 (Flow.Target.distance target)

(* A target built after a record was drawn lazily scores it against the
   memoized observation, and an aborted speculation that first shows the
   record to that target must not forget it: a released observation is
   fixed forever.  The baseline is the measurement-time support alone, so
   the late target's energy agrees with the early one's. *)
let test_target_late_build_keeps_draws () =
  let b = Budget.create ~name:"d" 1e12 in
  let m = Batch.noisy_count ~rng:(Prng.create 5) ~epsilon:2.0 (Batch.source ~budget:b [ (1, 2.0) ]) in
  let early =
    let engine = Dataflow.Engine.create () in
    let handle, c = Flow.input engine in
    let t = Flow.Target.create c m in
    Flow.feed handle [ (7, 1.0) ];
    Flow.feed handle [ (7, -1.0) ];
    t
  in
  let v7 = Measurement.value m 7 in
  Alcotest.(check int) "support + one lazy draw" 2 (Measurement.observed_size m);
  let engine = Dataflow.Engine.create () in
  let handle, c = Flow.input engine in
  let late = Flow.Target.create c m in
  Alcotest.(check int64) "same baseline energy"
    (Int64.bits_of_float (Flow.Target.energy [ early ]))
    (Int64.bits_of_float (Flow.Target.energy [ late ]));
  Dataflow.Engine.begin_speculation engine;
  Flow.feed handle [ (7, 1.0) ];
  Dataflow.Engine.abort engine;
  Alcotest.(check int) "nothing forgotten" 2 (Measurement.observed_size m);
  Alcotest.(check int64) "same observation" (Int64.bits_of_float v7)
    (Int64.bits_of_float (Measurement.value m 7));
  (* A record nobody drew before is forgotten again on abort. *)
  Dataflow.Engine.begin_speculation engine;
  Flow.feed handle [ (8, 1.0) ];
  Alcotest.(check int) "fresh draw" 3 (Measurement.observed_size m);
  Dataflow.Engine.abort engine;
  Alcotest.(check int) "fresh draw undone" 2 (Measurement.observed_size m)

let test_noisy_sum () =
  let b = Budget.create ~name:"d" 1e9 in
  let c = Batch.source ~budget:b [ (1, 2.0); (5, 1.0); (100, 1.0) ] in
  (* clamp 10: sum = 2*1 + 1*5 + 1*10(clipped) = 17. *)
  let v =
    Wpinq_core.Mechanisms.noisy_sum ~rng:(Prng.create 8) ~epsilon:1e6 ~clamp:10.0
      ~f:float_of_int c
  in
  check_close ~tol:1e-3 "clipped sum" 17.0 v;
  check_close "charged once" 1e6 (Budget.spent b);
  (* use-count scaling: a self-concat costs 2 eps. *)
  let b2 = Budget.create ~name:"d2" 10.0 in
  let c2 = Batch.source ~budget:b2 [ (1, 1.0) ] in
  let cc = Batch.concat c2 c2 in
  let _ =
    Wpinq_core.Mechanisms.noisy_sum ~rng:(Prng.create 9) ~epsilon:0.5 ~clamp:1.0
      ~f:float_of_int cc
  in
  check_close "2 uses" 1.0 (Budget.spent b2)

let test_noisy_sum_noise_scale () =
  (* Empirically the noise has mean absolute deviation clamp/eps. *)
  let eps = 1.0 and clamp = 5.0 in
  let n = 20_000 in
  let rng = Prng.create 10 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let b = Budget.create ~name:"d" 10.0 in
    let c = Batch.source ~budget:b [ (1, 1.0) ] in
    let v =
      Wpinq_core.Mechanisms.noisy_sum ~rng ~epsilon:eps ~clamp ~f:float_of_int c
    in
    acc := !acc +. Float.abs (v -. 1.0)
  done;
  let mad = !acc /. float_of_int n in
  Alcotest.(check bool) "E|noise| ~ clamp/eps" true (Float.abs (mad -. (clamp /. eps)) < 0.25)

let test_noisy_average () =
  let b = Budget.create ~name:"d" 1e9 in
  let c = Batch.source ~budget:b [ (2, 3.0); (4, 1.0) ] in
  let v =
    Wpinq_core.Mechanisms.noisy_average ~rng:(Prng.create 11) ~epsilon:1e6 ~clamp:10.0
      ~f:float_of_int c
  in
  (* (3*2 + 1*4) / 4 = 2.5 *)
  check_close ~tol:1e-3 "average" 2.5 v;
  check_close "full epsilon charged" 1e6 (Budget.spent b)

let test_mechanisms_ignore_row_order () =
  (* Weights spanning forty-eight binades (2^-31 to 2^18, inside the
     grid's range), with repeated records, so that any regrouping of the weighted sum or the
     total moves low bits: the released values must be a function of the
     source multiset, not its row order. *)
  let rng = Prng.create 31 in
  let rows =
    Array.init 600 (fun _ ->
        (Prng.int rng 400, Float.ldexp (0.5 +. Prng.uniform rng) (Prng.int rng 48 - 30)))
  in
  let release rows =
    let b = Budget.create ~name:"d" 1e9 in
    let c = Batch.source ~budget:b (Array.to_list rows) in
    let f x = float_of_int (x mod 13) -. 6.5 in
    let s = Wpinq_core.Mechanisms.noisy_sum ~rng:(Prng.create 32) ~epsilon:1.0 ~clamp:6.0 ~f c in
    let a =
      Wpinq_core.Mechanisms.noisy_average ~rng:(Prng.create 33) ~epsilon:1.0 ~clamp:6.0 ~f c
    in
    (Int64.bits_of_float s, Int64.bits_of_float a)
  in
  let expected = release rows in
  for _ = 1 to 5 do
    Prng.shuffle rng rows;
    Alcotest.(check (pair int64 int64)) "permuted rows" expected (release rows)
  done

let test_exponential_mechanism () =
  let b = Budget.create ~name:"d" 1e9 in
  let c = Batch.source ~budget:b [ ("x", 5.0); ("y", 1.0) ] in
  (* Score of candidate r = total weight of record r: 1-Lipschitz. *)
  let score r data = Wdata.weight data r in
  (* Huge epsilon: must pick the argmax. *)
  for i = 0 to 20 do
    let r =
      Wpinq_core.Mechanisms.exponential ~rng:(Prng.create (100 + i)) ~epsilon:1e6
        ~candidates:[ "x"; "y"; "z" ] ~score c
    in
    Alcotest.(check string) "argmax" "x" r
  done;
  (* Moderate epsilon: both x and y appear with sane frequencies. *)
  let rng = Prng.create 12 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 2000 do
    let r =
      Wpinq_core.Mechanisms.exponential ~rng ~epsilon:0.5 ~candidates:[ "x"; "y" ] ~score c
    in
    Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r))
  done;
  let cx = Option.value ~default:0 (Hashtbl.find_opt counts "x") in
  (* P(x)/P(y) = exp(0.5*(5-1)/2) = e ~ 2.72; so P(x) ~ 0.73. *)
  let frac = float_of_int cx /. 2000.0 in
  Alcotest.(check bool) "exponential odds" true (Float.abs (frac -. 0.731) < 0.05);
  Alcotest.check_raises "empty candidates"
    (Invalid_argument "Mechanisms.exponential: no candidates") (fun () ->
      ignore
        (Wpinq_core.Mechanisms.exponential ~rng ~epsilon:1.0 ~candidates:[] ~score c))

let test_mechanisms_respect_budget () =
  let b = Budget.create ~name:"d" 0.5 in
  let c = Batch.source ~budget:b [ (1, 1.0) ] in
  let _ =
    Wpinq_core.Mechanisms.noisy_sum ~rng:(Prng.create 13) ~epsilon:0.4 ~clamp:1.0
      ~f:float_of_int c
  in
  (try
     ignore
       (Wpinq_core.Mechanisms.noisy_average ~rng:(Prng.create 14) ~epsilon:0.4 ~clamp:1.0
          ~f:float_of_int c);
     Alcotest.fail "expected Exhausted"
   with Budget.Exhausted _ -> ());
  check_close "nothing extra spent" 0.4 (Budget.spent b)

let test_target_energy () =
  let b = Budget.create ~name:"d" 1e12 in
  let m1 =
    Batch.noisy_count ~rng:(Prng.create 6) ~epsilon:1e9 (Batch.source ~budget:b [ (1, 1.0) ])
  in
  let m2 =
    Batch.noisy_count ~rng:(Prng.create 7) ~epsilon:1e9 (Batch.source ~budget:b [ (2, 2.0) ])
  in
  let engine = Dataflow.Engine.create () in
  let _, c1 = Flow.input engine in
  let _, c2 = Flow.input engine in
  let t1 = Flow.Target.create c1 m1 and t2 = Flow.Target.create c2 m2 in
  check_close ~tol:1.0 "energy sums" (1e9 *. 3.0) (Flow.Target.energy [ t1; t2 ])

let test_budget_rejects_nonfinite () =
  let b = Budget.create ~name:"d" 1.0 in
  List.iter
    (fun eps ->
      (match Budget.charge b eps with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "charge accepted %h" eps);
      match Budget.try_charge b eps with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "try_charge accepted %h" eps)
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.1 ];
  check_close "nothing spent" 0.0 (Budget.spent b);
  (match Budget.create ~name:"d" Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted NaN total");
  (* The same guard protects the mechanisms. *)
  let c = Batch.source ~budget:b [ (1, 1.0) ] in
  match Batch.noisy_count ~rng:(Prng.create 8) ~epsilon:Float.nan c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "noisy_count accepted NaN epsilon"

let test_budget_try_charge () =
  let b = Budget.create ~name:"d" 0.5 in
  (match Budget.try_charge ~label:"ok" b 0.3 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "in-budget charge denied");
  (match Budget.try_charge ~label:"too-much" b 0.3 with
  | Error { Budget.name; requested; remaining } ->
      Alcotest.(check string) "denier" "d" name;
      check_close "requested" 0.3 requested;
      check_close "remaining" 0.2 remaining
  | Ok () -> Alcotest.fail "overdraw allowed");
  (* The denial spent nothing and logged nothing. *)
  check_close "spent" 0.3 (Budget.spent b);
  Alcotest.(check (list (pair string (float 1e-9)))) "log" [ ("ok", 0.3) ] (Budget.log b)

let test_budget_save_load () =
  let module Codec = Wpinq_persist.Persist.Codec in
  let b = Budget.create ~name:"secret" 2.5 in
  Budget.charge ~label:"first" b 0.5;
  Budget.charge ~label:"second" b 0.25;
  let buf = Buffer.create 64 in
  Budget.save b buf;
  let b' = Budget.load (Codec.reader (Buffer.contents buf)) in
  Alcotest.(check string) "name" (Budget.name b) (Budget.name b');
  check_close "total" (Budget.total b) (Budget.total b');
  check_close "spent" (Budget.spent b) (Budget.spent b');
  Alcotest.(check (list (pair string (float 1e-12)))) "log" (Budget.log b) (Budget.log b');
  (* A child budget is a transient view and must refuse to serialize. *)
  let child = Budget.parallel_child (Budget.parallel_group b) ~name:"part" in
  match Budget.save child (Buffer.create 16) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "child budget serialized"

let test_parallel_child_allocation () =
  let b = Budget.create ~name:"parent" 10.0 in
  let g = Budget.parallel_group b in
  (* The allocation is validated at creation, exactly as try_charge
     validates ε: a poisoned cap must never construct an account. *)
  List.iter
    (fun bad ->
      match Budget.parallel_child ~allocation:bad g ~name:"part" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "parallel_child accepted allocation %h" bad)
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.25 ];
  (* A valid allocation caps the child's cumulative spend even while the
     group still has headroom. *)
  let child = Budget.parallel_child ~allocation:0.5 g ~name:"capped" in
  Budget.charge child 0.4;
  (match Budget.try_charge child 0.2 with
  | Error { Budget.name; requested; remaining } ->
      Alcotest.(check string) "cap denial names the child" "capped" name;
      check_close "requested" 0.2 requested;
      check_close "remaining under cap" 0.1 remaining
  | Ok () -> Alcotest.fail "charge beyond allocation accepted");
  check_close "denial spent nothing" 0.4 (Budget.spent child);
  (* A zero allocation is valid and simply refuses everything. *)
  let frozen = Budget.parallel_child ~allocation:0.0 g ~name:"frozen" in
  (match Budget.try_charge frozen 0.1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero-allocation child accepted a charge");
  (* An uncapped child still behaves as before: bounded by the parent and
     the group maximum only. *)
  let free = Budget.parallel_child g ~name:"free" in
  Budget.charge free 1.0;
  check_close "uncapped child spends normally" 1.0 (Budget.spent free)

let test_measurement_save_load () =
  let module Codec = Wpinq_persist.Persist.Codec in
  let b = Budget.create ~name:"d" 1e9 in
  let c = Batch.source ~budget:b [ (1, 0.75); (2, 2.0) ] in
  let m = Batch.noisy_count ~rng:(Prng.create 11) ~epsilon:0.5 c in
  (* Materialize one observed and one fresh-noise value before saving. *)
  let v1 = Measurement.value m 1 in
  let v99 = Measurement.value m 99 in
  let buf = Buffer.create 256 in
  Measurement.save Codec.write_int m buf;
  let m' = Measurement.load Codec.read_int (Codec.reader (Buffer.contents buf)) in
  (* Already-released values round-trip bit-exactly. *)
  Alcotest.(check int64) "value 1" (Int64.bits_of_float v1)
    (Int64.bits_of_float (Measurement.value m' 1));
  Alcotest.(check int64) "value 99" (Int64.bits_of_float v99)
    (Int64.bits_of_float (Measurement.value m' 99));
  (* And the noise stream continues identically: a key neither has seen yet
     draws the same value from both. *)
  Alcotest.(check int64) "fresh draw" (Int64.bits_of_float (Measurement.value m 7))
    (Int64.bits_of_float (Measurement.value m' 7))

let suite =
  [
    Alcotest.test_case "budget basics" `Quick test_budget_basics;
    Alcotest.test_case "budget rejects non-finite" `Quick test_budget_rejects_nonfinite;
    Alcotest.test_case "budget try_charge" `Quick test_budget_try_charge;
    Alcotest.test_case "budget save/load" `Quick test_budget_save_load;
    Alcotest.test_case "measurement save/load" `Quick test_measurement_save_load;
    Alcotest.test_case "budget exhausted" `Quick test_budget_exhausted;
    Alcotest.test_case "budget rounding" `Quick test_budget_rounding_tolerance;
    Alcotest.test_case "use counting" `Quick test_use_counting;
    Alcotest.test_case "use counting, two sources" `Quick test_use_counting_two_sources;
    Alcotest.test_case "noisy_count charges" `Quick test_noisy_count_charges;
    Alcotest.test_case "noisy_count accuracy" `Quick test_noisy_count_accuracy;
    Alcotest.test_case "noisy_count noise distribution" `Quick test_noisy_count_noise_distribution;
    Alcotest.test_case "measurement memoization" `Quick test_measurement_memoization;
    Alcotest.test_case "unsafe_value" `Quick test_unsafe_value;
    Alcotest.test_case "batch = flow on composite query" `Quick test_batch_flow_agree;
    Alcotest.test_case "batch refuses out-of-range weights" `Quick test_batch_range;
    Alcotest.test_case "partition contents" `Quick test_partition_contents;
    Alcotest.test_case "parallel composition" `Quick test_parallel_composition;
    Alcotest.test_case "parallel child allocation cap" `Quick test_parallel_child_allocation;
    Alcotest.test_case "noisy_sum" `Quick test_noisy_sum;
    Alcotest.test_case "noisy_sum noise scale" `Quick test_noisy_sum_noise_scale;
    Alcotest.test_case "noisy_average" `Quick test_noisy_average;
    Alcotest.test_case "mechanisms ignore row order" `Quick test_mechanisms_ignore_row_order;
    Alcotest.test_case "exponential mechanism" `Quick test_exponential_mechanism;
    Alcotest.test_case "mechanisms respect budget" `Quick test_mechanisms_respect_budget;
    Alcotest.test_case "target distance" `Quick test_target_distance;
    Alcotest.test_case "target energy" `Quick test_target_energy;
    Alcotest.test_case "late target keeps lazy draws" `Quick test_target_late_build_keeps_draws;
  ]
