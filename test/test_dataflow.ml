(* The incremental engine's core correctness property: after any sequence of
   delta batches, every sink holds exactly what the batch operators compute
   on the accumulated input.  Plus unit tests for update paths that are easy
   to get wrong (join normalization, group reordering, shave boundaries). *)

module Wdata = Wpinq_weighted.Wdata
module Ops = Wpinq_weighted.Ops
module Dataflow = Wpinq_dataflow.Dataflow
open Helpers

let pp_pair fmt (x, y) = Format.fprintf fmt "(%d,%d)" x y

(* Drive a single-input pipeline with a list of delta batches and compare
   the sink against the batch semantics at every step. *)
let agrees_throughout ~build ~batch deltas =
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let sink = Dataflow.Sink.attach (build (Dataflow.Input.node input)) in
  List.for_all
    (fun delta ->
      Dataflow.Input.feed input delta;
      let expected = batch (Dataflow.Input.current input) in
      Wdata.equal ~tol:0.0 expected (Dataflow.Sink.current sink))
    deltas

let incr_matches_batch name ~build ~batch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name (deltas_arb ()) (fun deltas ->
         agrees_throughout ~build ~batch deltas))

let equivalence_suite =
  [
    incr_matches_batch "incr=batch: select"
      ~build:(Dataflow.select (fun x -> x mod 3))
      ~batch:(Ops.select (fun x -> x mod 3));
    incr_matches_batch "incr=batch: where"
      ~build:(Dataflow.where (fun x -> x mod 2 = 0))
      ~batch:(Ops.where (fun x -> x mod 2 = 0));
    incr_matches_batch "incr=batch: select_many"
      ~build:(Dataflow.select_many (fun x -> List.init (x mod 4) (fun i -> (i, 0.5))))
      ~batch:(Ops.select_many (fun x -> List.init (x mod 4) (fun i -> (i, 0.5))));
    incr_matches_batch "incr=batch: group_by"
      ~build:(Dataflow.group_by ~key:(fun x -> x mod 2) ~reduce:(fun l -> List.sort compare l))
      ~batch:(Ops.group_by ~key:(fun x -> x mod 2) ~reduce:(fun l -> List.sort compare l));
    incr_matches_batch "incr=batch: shave"
      ~build:(Dataflow.shave_const 0.7)
      ~batch:(Ops.shave_const 0.7);
    incr_matches_batch "incr=batch: distinct"
      ~build:(Dataflow.distinct ~bound:1.5)
      ~batch:(Ops.distinct ~bound:1.5);
    incr_matches_batch "incr=batch: self-union"
      ~build:(fun n -> Dataflow.union (Dataflow.select (fun x -> x + 1) n) n)
      ~batch:(fun d -> Ops.union (Ops.select (fun x -> x + 1) d) d);
    incr_matches_batch "incr=batch: self-intersect"
      ~build:(fun n -> Dataflow.intersect (Dataflow.select (fun x -> x mod 5) n) n)
      ~batch:(fun d -> Ops.intersect (Ops.select (fun x -> x mod 5) d) d);
    incr_matches_batch "incr=batch: self-concat/except"
      ~build:(fun n -> Dataflow.except (Dataflow.concat n n) (Dataflow.select (fun x -> x) n))
      ~batch:(fun d -> Ops.except (Ops.concat d d) d);
    incr_matches_batch "incr=batch: self-join"
      ~build:(fun n ->
        Dataflow.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3)
          ~reduce:(fun x y -> (x, y))
          n n)
      ~batch:(fun d ->
        Ops.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3) ~reduce:(fun x y -> (x, y)) d d);
    incr_matches_batch "incr=batch: join-of-groupby (composite)"
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
    incr_matches_batch "incr=batch: shave-of-select (degree ccdf shape)"
      ~build:(fun n -> Dataflow.select snd (Dataflow.shave_const 1.0 (Dataflow.select (fun x -> x mod 3) n)))
      ~batch:(fun d -> Ops.select snd (Ops.shave_const 1.0 (Ops.select (fun x -> x mod 3) d)));
  ]

(* Two-input equivalence. *)
let two_input_matches name ~build ~batch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name
       (QCheck.pair (deltas_arb ()) (deltas_arb ()))
       (fun (da, db) ->
         let engine = Dataflow.Engine.create () in
         let ia = Dataflow.Input.create engine in
         let ib = Dataflow.Input.create engine in
         let sink =
           Dataflow.Sink.attach (build (Dataflow.Input.node ia) (Dataflow.Input.node ib))
         in
         (* Interleave feeds. *)
         let rec interleave xs ys =
           match (xs, ys) with
           | [], [] -> true
           | x :: xs, ys_all ->
               Dataflow.Input.feed ia x;
               let ok =
                 Wdata.equal ~tol:0.0
                   (batch (Dataflow.Input.current ia) (Dataflow.Input.current ib))
                   (Dataflow.Sink.current sink)
               in
               ok && interleave_b xs ys_all
           | [], y :: ys ->
               Dataflow.Input.feed ib y;
               Wdata.equal ~tol:0.0
                 (batch (Dataflow.Input.current ia) (Dataflow.Input.current ib))
                 (Dataflow.Sink.current sink)
               && interleave [] ys
         and interleave_b xs ys =
           match ys with
           | [] -> interleave xs []
           | y :: ys ->
               Dataflow.Input.feed ib y;
               Wdata.equal ~tol:0.0
                 (batch (Dataflow.Input.current ia) (Dataflow.Input.current ib))
                 (Dataflow.Sink.current sink)
               && interleave xs ys
         in
         interleave da db))

let two_input_suite =
  [
    two_input_matches "incr=batch: union (2 inputs)" ~build:Dataflow.union ~batch:Ops.union;
    two_input_matches "incr=batch: intersect (2 inputs)" ~build:Dataflow.intersect
      ~batch:Ops.intersect;
    two_input_matches "incr=batch: concat (2 inputs)" ~build:Dataflow.concat ~batch:Ops.concat;
    two_input_matches "incr=batch: except (2 inputs)" ~build:Dataflow.except ~batch:Ops.except;
    two_input_matches "incr=batch: join (2 inputs)"
      ~build:(Dataflow.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 2) ~reduce:(fun x y -> (x, y)))
      ~batch:(Ops.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 2) ~reduce:(fun x y -> (x, y)));
  ]

(* ---- unit tests ---- *)

let test_coalesce () =
  let got = Dataflow.coalesce [ (1, 1.0); (2, 0.5); (1, -1.0); (3, 1e-15) ] in
  Alcotest.(check (list (pair int (float 1e-9)))) "coalesced" [ (2, 0.5) ] got

let test_join_fast_path_used () =
  (* A weight-preserving batch (edge swap shape) must take the fast path. *)
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let n = Dataflow.Input.node input in
  let joined = Dataflow.join ~kl:snd ~kr:fst ~reduce:(fun (a, _) (_, c) -> (a, c)) n n in
  let sink = Dataflow.Sink.attach joined in
  Dataflow.Input.feed input [ ((0, 1), 1.0); ((1, 2), 1.0); ((1, 3), 1.0) ];
  let full_before = Dataflow.Engine.join_full_rescales engine in
  (* Swap (1,2) for (1,4): key 1 on the src side keeps norm 2. *)
  Dataflow.Input.feed input [ ((1, 2), -1.0); ((1, 4), 1.0) ];
  let fast = Dataflow.Engine.join_fast_updates engine in
  Alcotest.(check bool) "fast path hit" true (fast > 0);
  (* dst-side keys 2 and 4 changed norm, so up to two full rescales are
     expected there; the norm-preserving src-side key 1 must not add one. *)
  Alcotest.(check bool) "at most the two dst-side rescales" true
    (Dataflow.Engine.join_full_rescales engine - full_before <= 2);
  (* And the contents are still exactly right. *)
  let expected =
    Ops.join ~kl:snd ~kr:fst
      ~reduce:(fun (a, _) (_, c) -> (a, c))
      (Dataflow.Input.current input) (Dataflow.Input.current input)
  in
  check_wdata pp_pair "join contents after swap" expected (Dataflow.Sink.current sink)

let test_join_empty_key_delta () =
  (* Regression guard for the norm accounting rewrite: a delta that drains
     a join key must retire the key's part completely — stored norm
     included.  The old code folded sub-threshold norm residue into
     [mine.norm] both inside the full-rescale branch and again in a
     trailing dust guard, so a drained key could be left with phantom norm
     above the dust threshold, surviving the drop check and mis-steering the
     key's next delta onto the fast path against an empty normalizer.
     Norm is now folded exactly once per branch (see dataflow.mli). *)
  let engine = Dataflow.Engine.create () in
  let ia = Dataflow.Input.create engine in
  let ib = Dataflow.Input.create engine in
  let sink =
    Dataflow.Sink.attach
      (Dataflow.join
         ~kl:(fun x -> x mod 2)
         ~kr:(fun y -> y mod 2)
         ~reduce:(fun x y -> (x, y))
         (Dataflow.Input.node ia) (Dataflow.Input.node ib))
  in
  let empty_state = Dataflow.Engine.state_records engine in
  (* Fill key 0 on both sides, then drain side A of it again — twice, so a
     leaked part from round one would poison round two. *)
  for _ = 1 to 2 do
    Dataflow.Input.feed ia [ (2, 1.0); (4, 0.5) ];
    Dataflow.Input.feed ib [ (6, 2.0) ];
    Dataflow.Input.feed ia [ (2, -1.0); (4, -0.5) ];
    Dataflow.Input.feed ib [ (6, -2.0) ]
  done;
  Alcotest.(check int) "no state leaked by drained keys" empty_state
    (Dataflow.Engine.state_records engine);
  (* Every batch above changed its key's normalizer, so none may have been
     retired through the norm-preserving fast path. *)
  Alcotest.(check int) "no fast path against an empty normalizer" 0
    (Dataflow.Engine.join_fast_updates engine);
  Alcotest.(check int) "sink drained" 0 (Dataflow.Sink.support_size sink);
  (* And the key still behaves exactly per batch semantics afterwards. *)
  Dataflow.Input.feed ia [ (2, 1.5) ];
  Dataflow.Input.feed ib [ (4, 1.0); (6, 0.5) ];
  let expected =
    Ops.join
      ~kl:(fun x -> x mod 2)
      ~kr:(fun y -> y mod 2)
      ~reduce:(fun x y -> (x, y))
      (Dataflow.Input.current ia) (Dataflow.Input.current ib)
  in
  check_wdata pp_pair "join contents after drain/refill" expected (Dataflow.Sink.current sink)

let test_feed_reentrancy_rejected () =
  (* A sink callback runs mid-propagation; feeding from it would interleave
     two propagations over shared operator state.  The guard is engine-wide
     (feeding a *different* input of the same engine is just as unsafe). *)
  let engine = Dataflow.Engine.create () in
  let ia = Dataflow.Input.create engine in
  let ib = Dataflow.Input.create engine in
  let sink = Dataflow.Sink.attach (Dataflow.Input.node ia) in
  let feed_target = ref ia in
  let armed = ref false in
  Dataflow.Sink.on_change sink (fun _ ~old_weight:_ ~new_weight:_ ->
      if !armed then Dataflow.Input.feed !feed_target [ (99, 1.0) ]);
  armed := true;
  Alcotest.check_raises "re-entrant feed (same input)"
    (Invalid_argument "Dataflow.Input.feed: re-entrant feed during propagation") (fun () ->
      Dataflow.Input.feed ia [ (1, 1.0) ]);
  feed_target := ib;
  Alcotest.check_raises "re-entrant feed (sibling input)"
    (Invalid_argument "Dataflow.Input.feed: re-entrant feed during propagation") (fun () ->
      Dataflow.Input.feed ia [ (2, 1.0) ]);
  (* The guard resets even on the exceptional path: normal feeding works. *)
  armed := false;
  Dataflow.Input.feed ia [ (3, 1.0) ];
  Alcotest.(check bool) "engine usable after rejection" true
    (Dataflow.Sink.weight sink 3 = 1.0)

let test_state_size_accounting () =
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let n = Dataflow.Input.node input in
  let _sink = Dataflow.Sink.attach (Dataflow.join ~kl:(fun x -> x mod 2) ~kr:(fun x -> x mod 2) ~reduce:(fun x y -> (x, y)) n n) in
  Alcotest.(check int) "empty engine" 0 (Dataflow.Engine.state_records engine);
  Dataflow.Input.feed input [ (1, 1.0); (2, 1.0) ];
  let filled = Dataflow.Engine.state_records engine in
  Alcotest.(check bool) "state tracked" true (filled > 0);
  Dataflow.Input.feed input [ (1, -1.0); (2, -1.0) ];
  Alcotest.(check int) "state drained" 0 (Dataflow.Engine.state_records engine)

let test_work_counter () =
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let _ = Dataflow.Sink.attach (Dataflow.select (fun x -> x) (Dataflow.Input.node input)) in
  let w0 = Dataflow.Engine.work engine in
  Dataflow.Input.feed input [ (1, 1.0); (2, 1.0) ];
  Alcotest.(check bool) "work counted" true (Dataflow.Engine.work engine > w0)

let test_sink_on_change_sequence () =
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let sink = Dataflow.Sink.attach (Dataflow.Input.node input) in
  let log = ref [] in
  Dataflow.Sink.on_change sink (fun x ~old_weight ~new_weight ->
      log := (x, old_weight, new_weight) :: !log);
  Dataflow.Input.feed input [ (7, 1.0) ];
  Dataflow.Input.feed input [ (7, 0.5) ];
  Dataflow.Input.feed input [ (7, -1.5) ];
  match List.rev !log with
  | [ (7, a0, a1); (7, b0, b1); (7, c0, c1) ] ->
      check_close "first old" 0.0 a0;
      check_close "first new" 1.0 a1;
      check_close "second old" 1.0 b0;
      check_close "second new" 1.5 b1;
      check_close "third old" 1.5 c0;
      check_close "third new" 0.0 c1
  | l -> Alcotest.failf "unexpected callback count %d" (List.length l)

let test_different_engines_rejected () =
  let e1 = Dataflow.Engine.create () and e2 = Dataflow.Engine.create () in
  let i1 = Dataflow.Input.create e1 and i2 = Dataflow.Input.create e2 in
  Alcotest.check_raises "engine mismatch"
    (Invalid_argument "Dataflow: nodes belong to different engines") (fun () ->
      ignore (Dataflow.concat (Dataflow.Input.node i1) (Dataflow.Input.node i2)))

let test_group_by_reordering () =
  (* Weight changes that reorder records inside a group must re-derive the
     prefix emissions. *)
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let sink =
    Dataflow.Sink.attach
      (Dataflow.group_by ~key:(fun _ -> ()) ~reduce:(fun l -> List.sort compare l)
         (Dataflow.Input.node input))
  in
  Dataflow.Input.feed input [ (1, 3.0); (2, 1.0) ];
  Dataflow.Input.feed input [ (1, -2.5); (2, 1.5) ];
  (* Now 2 has weight 2.5, 1 has weight 0.5. *)
  let expected =
    Ops.group_by ~key:(fun _ -> ()) ~reduce:(fun l -> List.sort compare l)
      (Wdata.of_list [ (1, 0.5); (2, 2.5) ])
  in
  let pp fmt ((), l) =
    Format.fprintf fmt "[%s]" (String.concat ";" (List.map string_of_int l))
  in
  check_wdata pp "reordered group" expected (Dataflow.Sink.current sink)

(* GroupBy's ordered parts under random weighted feeds — tied weights,
   nonzero-to-nonzero reweights, negative weights — fed plain or inside a
   committed or aborted speculation, on an engine fed from empty and on
   one bulk-built at a random first dataset.  [reduce] keeps the member
   list, so the order a part hands it shows in the output.  After every
   feed or commit both sinks equal [Ops.group_by] bit for bit, and both
   engines' digests (which cover each part's member order) equal a fresh
   bulk build's, whose parts are sorted canonically; after every abort
   they equal the pre-speculation digests. *)
let test_group_by_ordered_parts =
  let gen_weight =
    QCheck.Gen.(
      oneof
        [ return 1.0; return 1.0; return 0.5; return 2.0; return (-1.0); return (-0.5);
          float_range (-2.0) 2.0 ])
  in
  let gen_delta = QCheck.Gen.(list_size (int_range 1 6) (pair (int_bound 11) gen_weight)) in
  let gen =
    QCheck.Gen.(pair gen_delta (list_size (int_range 1 15) (pair (int_bound 2) gen_delta)))
  in
  let key x = x mod 3 and reduce l = l in
  let bits d =
    List.sort compare (List.map (fun (x, w) -> (x, Int64.bits_of_float w)) (Wdata.to_list d))
  in
  let build ?init () =
    let engine = Dataflow.Engine.create () in
    let input = Dataflow.Input.create ?init engine in
    let sink = Dataflow.Sink.attach (Dataflow.group_by ~key ~reduce (Dataflow.Input.node input)) in
    Dataflow.Engine.end_build engine;
    (engine, input, sink)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"group_by ordered parts: batch, canonical, abort-clean"
       (QCheck.make gen) (fun (first, steps) ->
         let fed = build () in
         let (_, fed_input, _) = fed in
         Dataflow.Input.feed fed_input first;
         let bulk = build ~init:(Dataflow.Input.current fed_input) () in
         let canonical (engine, input, sink) =
           let current = Dataflow.Input.current input in
           let fresh, _, _ = build ~init:current () in
           bits (Dataflow.Sink.current sink) = bits (Ops.group_by ~key ~reduce current)
           && Dataflow.Engine.digests engine = Dataflow.Engine.digests fresh
         in
         let step (outcome, delta) (engine, input, _) =
           if outcome = 0 then begin
             Dataflow.Input.feed input delta;
             true
           end
           else begin
             let before = Dataflow.Engine.digests engine in
             Dataflow.Engine.begin_speculation engine;
             Dataflow.Input.feed input delta;
             if outcome = 1 then (Dataflow.Engine.commit engine; true)
             else (Dataflow.Engine.abort engine; Dataflow.Engine.digests engine = before)
           end
         in
         let (fed_engine, _, _) = fed and (bulk_engine, _, _) = bulk in
         canonical fed && canonical bulk
         && List.for_all
              (fun s ->
                let a = step s fed and b = step s bulk in
                a && b && canonical fed && canonical bulk
                && Dataflow.Engine.digests fed_engine = Dataflow.Engine.digests bulk_engine)
              steps))

let suite =
  [
    Alcotest.test_case "coalesce" `Quick test_coalesce;
    Alcotest.test_case "join fast path on swap" `Quick test_join_fast_path_used;
    Alcotest.test_case "join empty-key delta retires part" `Quick test_join_empty_key_delta;
    Alcotest.test_case "re-entrant feed rejected" `Quick test_feed_reentrancy_rejected;
    Alcotest.test_case "state size accounting" `Quick test_state_size_accounting;
    Alcotest.test_case "work counter" `Quick test_work_counter;
    Alcotest.test_case "sink on_change" `Quick test_sink_on_change_sequence;
    Alcotest.test_case "engine mismatch rejected" `Quick test_different_engines_rejected;
    Alcotest.test_case "group_by reordering" `Quick test_group_by_reordering;
    test_group_by_ordered_parts;
  ]
  @ equivalence_suite @ two_input_suite
