(* Exact accumulation: the incremental engine's state and energy are a pure
   function of its current input (the edge multiset plus the measurement
   state), whatever history of speculations, commits, aborts, rebuilds and
   checkpoints led there.  Every comparison below is bit for bit. *)

module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Prng = Wpinq_prng.Prng
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Plan = Wpinq_core.Plan
module Measurement = Wpinq_core.Measurement
module Wdata = Wpinq_weighted.Wdata
module Codec = Wpinq_persist.Persist.Codec
module Dataflow = Wpinq_dataflow.Dataflow
module Grid = Dataflow.Grid
module Datasets = Wpinq_data.Datasets
module Fit = Wpinq_infer.Fit
module Mcmc = Wpinq_infer.Mcmc
module W = Wpinq_infer.Workflow
module Qp = Wpinq_queries.Queries.Make (Plan)
module Qb = Wpinq_queries.Queries.Make (Batch)

let bits = Int64.bits_of_float
let check_bits name a b = Alcotest.(check int64) name (bits a) (bits b)

let clone write read m =
  let buf = Buffer.create 1024 in
  Measurement.save write m buf;
  Measurement.load read (Codec.reader (Buffer.contents buf))

let wr_pair buf (a, b) =
  Codec.write_int buf a;
  Codec.write_int buf b

let rd_pair r =
  let a = Codec.read_int r in
  let b = Codec.read_int r in
  (a, b)

let problem () =
  let secret = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 3) in
  let seed = Rewire.randomize secret (Prng.create 4) in
  let budget = Budget.create ~name:"edges" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let rng = Prng.create 42 in
  let m_tbi = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.tbi sym) in
  let m_jdd = Batch.noisy_count ~rng ~epsilon:50.0 (Qb.jdd sym) in
  (seed, (m_tbi, m_jdd))

(* The fit plans over fresh clones of the measurements. *)
let measured (mt, mj) =
  let source = Plan.source ~name:"sym" () in
  ( source,
    [
      Fit.Measured (Qp.tbi source, clone (fun _ () -> ()) (fun _ -> ()) mt);
      Fit.Measured (Qp.jdd source, clone wr_pair rd_pair mj);
    ] )

let with_store_dir f =
  let dir = Filename.temp_file "wpinq_pin" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let clone_measured = List.map (fun (Fit.Measured (p, m)) -> Fit.Measured (p, Measurement.copy m))

(* A fresh build over the fit's edge array and copies of its measurements. *)
let fresh_of fit ~source ~measured =
  Fit.restore_shared ~rng:(Prng.create 1) ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source
    ~measured:(clone_measured measured) ()

let check_same_state name fit fresh =
  check_bits (name ^ ": energy") (Fit.energy fit) (Fit.energy fresh);
  List.iteri
    (fun i (a, b) ->
      check_bits
        (Printf.sprintf "%s: target %d distance" name i)
        (Flow.Target.distance a) (Flow.Target.distance b))
    (List.combine (Fit.targets fit) (Fit.targets fresh))

(* ---- dataflow: every sink is a function of the input ---- *)

(* One DAG exercising every operator, with a sink under each node. *)
let build_dag input =
  let n = Dataflow.Input.node input in
  let sel = Dataflow.select (fun x -> x mod 5) n in
  let many = Dataflow.select_many (fun x -> [ (x mod 3, 0.3); (x mod 4, 1.7) ]) n in
  let join = Dataflow.join ~kl:(fun x -> x mod 3) ~kr:(fun y -> y mod 2) ~reduce:(fun x y -> x + y) n sel in
  let groups = Dataflow.group_by ~key:(fun x -> x mod 2) ~reduce:List.length n in
  let shaved = Dataflow.select fst (Dataflow.shave_const 0.7 n) in
  let dist = Dataflow.distinct ~bound:1.5 many in
  let un = Dataflow.union sel dist in
  let inter = Dataflow.intersect (Dataflow.where (fun x -> x mod 2 = 0) n) shaved in
  let ex = Dataflow.except (Dataflow.concat join n) sel in
  let ints = List.map Dataflow.Sink.attach [ sel; many; join; shaved; dist; un; inter; ex ] in
  (Dataflow.Sink.attach groups, ints)

let sink_bits s =
  List.sort compare (List.map (fun (x, w) -> (x, bits w)) (Dataflow.Sink.to_list s))

let gen_weight =
  QCheck.Gen.(oneof [ return 1.0; return (-1.0); return 0.5; float_range (-2.0) 2.0 ])

let gen_blocks =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair (int_bound 2) (list_size (int_range 1 6) (pair (int_bound 11) gen_weight))))

let test_sinks_history_free =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"sinks = fresh build after speculate/commit/abort"
       (QCheck.make gen_blocks) (fun blocks ->
         let engine = Dataflow.Engine.create () in
         let input = Dataflow.Input.create engine in
         let g, sinks = build_dag input in
         List.iter
           (fun (outcome, delta) ->
             match outcome with
             | 0 -> Dataflow.Input.feed input delta
             | o ->
                 Dataflow.Engine.begin_speculation engine;
                 Dataflow.Input.feed input delta;
                 if o = 1 then Dataflow.Engine.commit engine else Dataflow.Engine.abort engine)
           blocks;
         let fresh_engine = Dataflow.Engine.create () in
         let fresh_input = Dataflow.Input.create fresh_engine in
         let g', sinks' = build_dag fresh_input in
         Dataflow.Input.feed fresh_input (Wdata.to_list (Dataflow.Input.current input));
         List.for_all2 (fun a b -> sink_bits a = sink_bits b) sinks sinks'
         && sink_bits g = sink_bits g'
         && Dataflow.Engine.digests engine = Dataflow.Engine.digests fresh_engine))

(* A bulk build — every operator adopting Batch-evaluated state — equals
   an engine fed the same input delta by delta, digests included, and the
   two keep agreeing as further deltas arrive. *)
let test_bulk_build_equals_feed =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"bulk build = fed build, then walks alike"
       (QCheck.make QCheck.Gen.(pair gen_blocks gen_blocks)) (fun (blocks, more) ->
         let engine = Dataflow.Engine.create () in
         let input = Dataflow.Input.create engine in
         let g, sinks = build_dag input in
         List.iter (fun (_, delta) -> Dataflow.Input.feed input delta) blocks;
         let bulk_engine = Dataflow.Engine.create () in
         let bulk_input = Dataflow.Input.create ~init:(Dataflow.Input.current input) bulk_engine in
         let g', sinks' = build_dag bulk_input in
         Dataflow.Engine.end_build bulk_engine;
         let agree () =
           List.for_all2 (fun a b -> sink_bits a = sink_bits b) sinks sinks'
           && sink_bits g = sink_bits g'
           && Dataflow.Engine.digests engine = Dataflow.Engine.digests bulk_engine
           && Dataflow.Engine.state_records engine = Dataflow.Engine.state_records bulk_engine
         in
         let built = agree () in
         List.iter
           (fun (outcome, delta) ->
             List.iter
               (fun (e, i) ->
                 if outcome = 0 then Dataflow.Input.feed i delta
                 else begin
                   Dataflow.Engine.begin_speculation e;
                   Dataflow.Input.feed i delta;
                   if outcome = 1 then Dataflow.Engine.commit e else Dataflow.Engine.abort e
                 end)
               [ (engine, input); (bulk_engine, bulk_input) ])
           more;
         built && agree ()))

(* ---- fits: the walk's state is a function of the edge array ---- *)

let gen_schedule = QCheck.Gen.(array_size (int_range 1 8) (int_range 1 6))

let test_walk_matches_fresh_build =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"walked fit = fresh build (jobs 1 and 2)"
       (QCheck.make QCheck.Gen.(pair (int_range 1 2) gen_schedule)) (fun (jobs, widths) ->
         let seed, ms = problem () in
         let source, measured = measured ms in
         let fit = Fit.create_shared ~rng:(Prng.create 7) ~seed_graph:seed ~source ~measured () in
         let width = Mcmc.Schedule (fun i -> widths.(i mod Array.length widths)) in
         let stats = Fit.run fit ~steps:150 ~pow:50.0 ~jobs ~width () in
         assert (stats.Mcmc.accepted > 0);
         check_same_state "walked vs fresh" fit (fresh_of fit ~source ~measured);
         true))

(* Walk N, rebuild in place, walk N more: the same chain as walking 2N. *)
let test_rebuild_is_bit_neutral () =
  let n = 150 in
  let seed, ms = problem () in
  let run_arm rebuild =
    let source, measured = measured ms in
    let fit = Fit.create_shared ~rng:(Prng.create 7) ~seed_graph:seed ~source ~measured () in
    let energies = ref [] in
    let on_step ~step ~energy = energies := (step, bits energy) :: !energies in
    let first = Fit.run fit ~steps:n ~pow:50.0 ~jobs:1 ~on_step () in
    if rebuild then begin
      let before = Fit.energy fit in
      Fit.rebuild_shared fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source ~measured;
      check_bits "rebuild keeps the energy" before (Fit.energy fit)
    end;
    let second = Fit.run fit ~steps:(2 * n) ~start:n ~pow:50.0 ~jobs:1 ~on_step () in
    (first.Mcmc.accepted + second.Mcmc.accepted, List.rev !energies, Fit.edge_array fit)
  in
  let acc_a, energies_a, edges_a = run_arm false in
  let acc_b, energies_b, edges_b = run_arm true in
  Alcotest.(check int) "accepted" acc_a acc_b;
  Alcotest.(check (list (pair int int64))) "per-step energies" energies_a energies_b;
  Alcotest.(check (array (pair int int))) "edges" edges_a edges_b

(* Fresh builds over permuted edge arrays feed the engine in different
   orders; with first-seen records drawn in record order, they agree on
   every noise draw.  The JDD measurement is taken on a different graph, so
   most of the fit's degree pairs are drawn lazily during the build. *)
let test_permuted_builds_agree () =
  let budget = Budget.create ~name:"edges" 1e9 in
  let other = Gen.clustered ~n:30 ~community:6 ~p_in:0.8 ~extra:5 (Prng.create 11) in
  let sym = Batch.source_records ~budget (Graph.directed_edges other) in
  let m = Batch.noisy_count ~rng:(Prng.create 12) ~epsilon:2.0 (Qb.jdd sym) in
  let g = Gen.epinions_like ~n:80 ~m:300 (Prng.create 13) in
  let edges = Graph.Mutable.edge_array (Graph.Mutable.of_graph g) in
  let build edges =
    let mj = clone wr_pair rd_pair m in
    let source = Plan.source ~name:"sym" () in
    let fit =
      Fit.restore_shared ~rng:(Prng.create 1) ~n:(Graph.n g) ~edges ~source
        ~measured:[ Fit.Measured (Qp.jdd source, mj) ]
        ()
    in
    (Fit.energy fit, List.sort compare (List.map (fun (x, v) -> (x, bits v)) (Measurement.observed mj)))
  in
  let e0, drawn0 = build edges in
  Alcotest.(check bool) "the build drew lazily" true
    (List.length drawn0 > List.length (Measurement.support m) + 1);
  let rng = Prng.create 14 in
  for trial = 1 to 5 do
    let permuted = Array.copy edges in
    for i = Array.length permuted - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = permuted.(i) in
      permuted.(i) <- permuted.(j);
      permuted.(j) <- t
    done;
    let e, drawn = build permuted in
    check_bits (Printf.sprintf "permutation %d: energy" trial) e0 e;
    Alcotest.(check (list (pair (pair int int) int64)))
      (Printf.sprintf "permutation %d: draw table" trial)
      drawn0 drawn
  done

(* A run that checkpoints and one that does not release the same bytes:
   checkpoint cadence is no longer part of the chain. *)
let test_checkpoints_do_not_move_the_chain () =
  let secret = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 5) in
  let run checkpoint =
    W.synthesize ~steps:900 ~trace_every:100 ~pow:100.0 ?checkpoint ~rng:(Prng.create 123)
      ~epsilon:0.5 ~query:(Some W.Tbi) ~queries:[ W.Jdd ] ~secret ()
  in
  let path = Filename.temp_file "wpinq_exact" ".wpq" in
  let with_ckpt =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () -> run (Some { W.every = 250; sink = W.Single path }))
  in
  let plain = run None in
  Alcotest.(check (list (pair int int)))
    "released edges"
    (Graph.edges plain.W.synthetic)
    (Graph.edges with_ckpt.W.synthetic);
  let stats (r : W.result) =
    let s = r.W.stats in
    (s.Mcmc.steps, s.Mcmc.accepted, s.Mcmc.invalid, bits s.Mcmc.initial_energy, bits s.Mcmc.final_energy)
  in
  Alcotest.(check bool) "stats" true (stats plain = stats with_ckpt);
  let trace (r : W.result) =
    List.map
      (fun (p : W.trace_point) -> (p.W.step, p.W.triangles, bits p.W.assortativity, bits p.W.energy))
      r.W.trace
  in
  Alcotest.(check bool) "trace" true (trace plain = trace with_ckpt)

(* The compaction bound: between rebuilds the engine's interned ids stay
   below twice the larger of the post-build count and [Fit.compaction_floor],
   so every batch ends within that plus the batch's own growth. *)
let test_interned_ids_bounded () =
  let secret = Datasets.load ~scale:0.1 Datasets.grqc in
  let budget = Budget.create ~name:"grqc" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let m = Batch.noisy_count ~rng:(Prng.create 21) ~epsilon:0.5 (Qb.tbi sym) in
  let seed = Rewire.randomize secret (Prng.create 22) in
  let source = Plan.source ~name:"sym" () in
  let fit =
    Fit.create_shared ~rng:(Prng.create 23) ~seed_graph:seed ~source
      ~measured:[ Fit.Measured (Qp.tbi source, m) ]
      ()
  in
  let engine = Fit.engine fit in
  let bound base = 2 * max base Fit.compaction_floor in
  let base = ref (Dataflow.Engine.interned_ids engine) in
  let prev = ref !base in
  let rebuilds = ref 0 in
  let on_batch ~dispatched:_ ~consumed:_ =
    let ids = Dataflow.Engine.interned_ids engine in
    (* A drop means the batch began with a rebuild; the post-build count is
       then at most [ids], which includes this batch's own growth. *)
    let start =
      if ids < !prev then begin
        incr rebuilds;
        base := ids;
        ids
      end
      else !prev
    in
    if start >= bound !base then
      Alcotest.failf "batch started at %d interned ids, bound %d" start (bound !base);
    prev := ids
  in
  ignore (Fit.run fit ~steps:20_000 ~pow:100.0 ~jobs:1 ~width:(Mcmc.Fixed 4) ~on_batch ());
  Alcotest.(check bool) (Printf.sprintf "compaction ran (%d rebuilds)" !rebuilds) true (!rebuilds > 0)

(* A query whose incremental feed shows its sink records that a later
   delivery of the same feed retracts: a group_by over a concat sees the
   u < v half of each group, emits its count, then sees the other half and
   retracts it.  The live walk draws noise for such transient counts; a
   bulk build shows the sink only its final records, all of which the walk
   has drawn.  So rebuilding and auditing after a walk keep the energy's
   bits and draw no noise. *)
let test_transient_records_draw_nothing () =
  let g = Gen.epinions_like ~n:60 ~m:200 (Prng.create 51) in
  let m = Measurement.create ~rng:(Prng.create 52) ~epsilon:1.0 ~true_data:(Wdata.of_list []) in
  let source = Plan.source ~name:"sym" () in
  let measured =
    [
      Fit.Measured
        ( Plan.group_by
            ~key:(fun (u, v) -> (u + v) mod 5)
            ~reduce:List.length
            (Plan.concat
               (Plan.where (fun (u, v) -> u < v) source)
               (Plan.where (fun (u, v) -> u > v) source)),
          m );
    ]
  in
  let fit = Fit.create_shared ~rng:(Prng.create 53) ~seed_graph:g ~source ~measured () in
  let stats = Fit.run fit ~steps:50 ~pow:0.0 () in
  Alcotest.(check bool) "the walk moved" true (stats.Mcmc.accepted > 0);
  let neutral name f =
    let energy = Fit.energy fit and mark = Measurement.mark m in
    f ();
    check_bits (name ^ ": energy") energy (Fit.energy fit);
    Alcotest.(check bool) (name ^ ": no draw") true (Measurement.mark m = mark)
  in
  neutral "rebuild" (fun () ->
      Fit.rebuild_shared fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source ~measured);
  neutral "audit" (fun () ->
      Alcotest.(check int) "clean audit" 0 (List.length (Fit.audit fit).Dataflow.Audit.divergences))

(* A rebuild over measurements that never observed what it shows — the
   fit's JDD measurement, rebuilt at another graph's edges — would draw
   noise the live chain never drew: it must refuse. *)
let test_undrawn_rebuild_refused () =
  let seed, ms = problem () in
  let source, measured = measured ms in
  let fit = Fit.create_shared ~rng:(Prng.create 7) ~seed_graph:seed ~source ~measured () in
  let other = Gen.epinions_like ~n:40 ~m:120 (Prng.create 54) in
  let edges = Graph.Mutable.edge_array (Graph.Mutable.of_graph other) in
  match Fit.rebuild_shared fit ~n:(Graph.n other) ~edges ~source ~measured with
  | exception Fit.Build_drew_noise _ -> ()
  | () -> Alcotest.fail "no Fit.Build_drew_noise"

(* ---- the chain itself, pinned ---- *)

(* Every other exactness test compares two engines built by the same code,
   so a change that moved every chain alike would pass them.  These pin
   whole releases: the user path ([Workflow.synthesize] with a
   generational checkpoint store and an audit cadence) on two small
   inputs at fixed seeds, by the final energy's bits, the audit count and
   the MD5 of the sorted synthetic edge list. *)
let pinned_release ~secret ~query ~seed ~steps ~audit_every =
  with_store_dir (fun dir ->
      let store = Wpinq_persist.Persist.Store.open_dir ~keep:2 dir in
      let r =
        W.synthesize ~steps ~trace_every:steps ~pow:1000.0 ~audit_every
          ~checkpoint:{ W.every = steps / 3; sink = W.Store store }
          ~rng:(Prng.create seed) ~epsilon:0.5 ~query:(Some query) ~secret ()
      in
      let edges = List.sort compare (Graph.edges r.W.synthetic) in
      let text = String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) edges) in
      (bits r.W.stats.Mcmc.final_energy, r.W.stats.Mcmc.audits, Digest.to_hex (Digest.string text)))

let check_pin name (energy, audits, md5) got =
  let energy', audits', md5' = got in
  Alcotest.(check int64) (name ^ ": final energy bits") energy energy';
  Alcotest.(check int) (name ^ ": audits") audits audits';
  Alcotest.(check string) (name ^ ": sorted edges md5") md5 md5'

let test_chain_pinned_grqc_tbi () =
  check_pin "grqc tbi" (4641931850115797008L, 3, "c999de895f770690783faee066995273")
    (pinned_release ~secret:(Datasets.load ~scale:0.15 Datasets.grqc) ~query:W.Tbi ~seed:601
       ~steps:1500 ~audit_every:400)

let test_chain_pinned_epinions_jdd () =
  check_pin "epinions jdd" (4651536200671704808L, 4, "74ab9c8f7002d4ff1d263e70cc2c35b2")
    (pinned_release
       ~secret:(Gen.epinions_like ~n:300 ~m:1500 (Prng.create 602))
       ~query:W.Jdd ~seed:603 ~steps:1200 ~audit_every:300)

(* ---- measurements ---- *)

let test_measurement_roundtrip_keeps_drawing () =
  let budget = Budget.create ~name:"d" 1e9 in
  let m = Batch.noisy_count ~rng:(Prng.create 31) ~epsilon:0.5 (Batch.source ~budget [ (1, 2.0) ]) in
  List.iter (fun x -> ignore (Measurement.value m x)) [ 5; 3; 9 ];
  (* A speculative draw rolled back: the cursor rewinds and 7 is forgotten. *)
  let mk = Measurement.mark m in
  ignore (Measurement.value m 7);
  Measurement.undo_draw m 7 mk;
  let m' = clone Codec.write_int Codec.read_int m in
  let bytes m =
    let buf = Buffer.create 256 in
    Measurement.save Codec.write_int m buf;
    Buffer.contents buf
  in
  Alcotest.(check string) "same snapshot bytes" (bytes m) (bytes m');
  Alcotest.(check bool) "same observations" true
    (List.map (fun (x, v) -> (x, bits v)) (Measurement.observed m)
    = List.map (fun (x, v) -> (x, bits v)) (Measurement.observed m'));
  List.iter
    (fun x ->
      check_bits (Printf.sprintf "value %d" x) (Measurement.value m x) (Measurement.value m' x))
    [ 7; 1; 5; 11; 3; 12 ];
  (* And both keep rolling back alike. *)
  let mk = Measurement.mark m and mk' = Measurement.mark m' in
  ignore (Measurement.value m 13);
  ignore (Measurement.value m' 13);
  Measurement.undo_draw m 13 mk;
  Measurement.undo_draw m' 13 mk';
  check_bits "value 14 after undo" (Measurement.value m 14) (Measurement.value m' 14)

(* ---- the grid ---- *)

let test_grid_overflow_raises () =
  let raises name f =
    match f () with
    | exception Grid.Overflow _ -> ()
    | _ -> Alcotest.failf "%s: no Grid.Overflow" name
  in
  Alcotest.(check int) "one" (1 lsl 40) (Grid.of_float 1.0);
  Alcotest.(check int) "half away from zero" (-1) (Grid.of_float (-0x1.8p-41));
  raises "value beyond 2^22" (fun () -> Grid.of_float 0x1p22);
  raises "nan" (fun () -> Grid.of_float Float.nan);
  raises "sum past max_int" (fun () -> Grid.add max_int 1);
  raises "sum past min_int" (fun () -> Grid.add (-max_int) (-1));
  let engine = Dataflow.Engine.create () in
  let input = Dataflow.Input.create engine in
  let _sink = Dataflow.Sink.attach (Dataflow.select (fun x -> x mod 2) (Dataflow.Input.node input)) in
  raises "feed beyond the grid" (fun () -> Dataflow.Input.feed input [ (1, 1e7) ]);
  (* Records of 2^21 each sum past the native int range in one select output. *)
  raises "accumulated overflow" (fun () ->
      Dataflow.Input.feed input (List.init 8192 (fun i -> (2 * i, 0x1p21))));
  (* A graph whose weights could reach the range is refused before the build. *)
  let fit_over n =
    Fit.restore_shared ~rng:(Prng.create 1) ~n ~edges:[||] ~source:(Plan.source ()) ~measured:[] ()
  in
  ignore (fit_over ((1 lsl 21) - 1));
  raises "graph beyond the range" (fun () -> fit_over (1 lsl 21))

(* ---- audits ---- *)

(* The audit's digest pass hashes no record and formats no cell name: it
   allocates next to nothing, and a healthy engine's digests equal a fresh
   build's. *)
let test_clean_audit_allocates_little () =
  let secret = Gen.epinions_like ~n:1000 ~m:10_000 (Prng.create 41) in
  let budget = Budget.create ~name:"jdd" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let m = Batch.noisy_count ~rng:(Prng.create 42) ~epsilon:0.1 (Qb.jdd sym) in
  let source = Plan.source ~name:"sym" () in
  let fit =
    Fit.create_shared ~rng:(Prng.create 43) ~seed_graph:secret ~source
      ~measured:[ Fit.Measured (Qp.jdd source, m) ]
      ()
  in
  let engine = Fit.engine fit in
  ignore (Dataflow.Engine.digests engine);
  let before = Gc.minor_words () in
  let digests = Dataflow.Engine.digests engine in
  let words = Gc.minor_words () -. before in
  let fresh =
    fresh_of fit ~source ~measured:[ Fit.Measured (Qp.jdd source, m) ]
  in
  Alcotest.(check (array int)) "clean" (Dataflow.Engine.digests (Fit.engine fresh)) digests;
  Alcotest.(check bool) "cells digested" true (Array.length digests > 5);
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f words < 0.5 Mw" words) true (words < 5e5)

(* A build leaves every table the room growth would have, so the first
   step after it copies none: per build (create, restore, audit), the
   first step that propagates allocates little in the major heap (a
   step that re-allocated the tables it touches takes about 1.7 Mw
   here). *)
let test_first_step_after_build_allocates_little () =
  let secret = Gen.epinions_like ~n:1000 ~m:10_000 (Prng.create 41) in
  let budget = Budget.create ~name:"jdd" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let m = Batch.noisy_count ~rng:(Prng.create 42) ~epsilon:0.1 (Qb.jdd sym) in
  let source = Plan.source ~name:"sym" () in
  let measured = [ Fit.Measured (Qp.jdd source, m) ] in
  let fit = Fit.create_shared ~rng:(Prng.create 43) ~seed_graph:secret ~source ~measured () in
  let first_step name fit =
    let engine = Fit.engine fit in
    let records = Dataflow.Engine.records_propagated engine in
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    let steps = ref 0 in
    while Dataflow.Engine.records_propagated engine = records && !steps < 50 do
      ignore (Fit.run fit ~steps:1 ~pow:10_000.0 ());
      incr steps
    done;
    let words = (Gc.quick_stat ()).Gc.major_words -. before in
    Alcotest.(check bool) (name ^ ": a step propagated") true (!steps < 50);
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f major words < 0.3 Mw" name words)
      true (words < 3e5)
  in
  first_step "after create" fit;
  first_step "after restore"
    (Fit.restore_shared ~rng:(Prng.create 44) ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source
       ~measured:(clone_measured measured) ());
  ignore (Fit.run fit ~steps:100 ~pow:10_000.0 ());
  Alcotest.(check int) "clean audit" 0 (List.length (Fit.audit fit).Dataflow.Audit.divergences);
  first_step "after audit" fit

(* Growth past a bulk build's size: deltas that add many times the
   build's records push every input-keyed table past the room the build
   gave it.  An abort leaves the digests the build had; a commit leaves
   those of a fresh bulk build of the final input. *)
let test_growth_past_build_size =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"growth past the build size: abort and commit exact"
       (QCheck.make
          QCheck.Gen.(pair (list_size (int_range 1 24) (pair (int_bound 23) gen_weight)) (int_range 2 5)))
       (fun (init, times) ->
         let bulk init =
           let engine = Dataflow.Engine.create () in
           let i = Dataflow.Input.create ~init engine in
           let g, sinks = build_dag i in
           Dataflow.Engine.end_build engine;
           (engine, i, g, sinks)
         in
         let init = Wdata.of_list init in
         let engine, input, _, _ = bulk init in
         let built = Dataflow.Engine.digests engine in
         let n = Wdata.support_size init in
         (* New records, [times] × (the build's records + 16): past the
            room of every table keyed by input record. *)
         let delta = List.init (times * (n + 16)) (fun i -> (24 + i, 1.0 +. float_of_int (i mod 3))) in
         Dataflow.Engine.begin_speculation engine;
         Dataflow.Input.feed input delta;
         Dataflow.Engine.abort engine;
         let aborted = Dataflow.Engine.digests engine = built in
         Dataflow.Engine.begin_speculation engine;
         Dataflow.Input.feed input delta;
         Dataflow.Engine.commit engine;
         let fresh, _, _, _ = bulk (Wdata.update init delta) in
         aborted && Dataflow.Engine.digests engine = Dataflow.Engine.digests fresh))

(* An audit is the compaction: it leaves the engine as small as a fresh
   build over the same edge array. *)
let test_audit_compacts () =
  let seed, ms = problem () in
  let source, measured = measured ms in
  let fit = Fit.create_shared ~rng:(Prng.create 7) ~seed_graph:seed ~source ~measured () in
  ignore (Fit.run fit ~steps:300 ~pow:50.0 ~jobs:1 ());
  let engine = Fit.engine fit in
  let walked = Dataflow.Engine.interned_ids engine in
  let report = Fit.audit fit in
  Alcotest.(check int) "clean" 0 (List.length report.Dataflow.Audit.divergences);
  let fresh = fresh_of fit ~source ~measured in
  let ids = Dataflow.Engine.interned_ids (Fit.engine fresh) in
  Alcotest.(check bool)
    (Printf.sprintf "the walk grew the engine (%d > %d)" walked ids)
    true (walked > ids);
  Alcotest.(check int) "interned ids after audit" ids (Dataflow.Engine.interned_ids engine);
  check_same_state "audited vs fresh" fit fresh

let suite =
  [
    test_sinks_history_free;
    test_walk_matches_fresh_build;
    test_bulk_build_equals_feed;
    Alcotest.test_case "rebuild in place is bit-neutral" `Quick test_rebuild_is_bit_neutral;
    Alcotest.test_case "permuted builds draw alike" `Quick test_permuted_builds_agree;
    Alcotest.test_case "checkpoints do not move the chain" `Slow
      test_checkpoints_do_not_move_the_chain;
    Alcotest.test_case "interned ids bounded by compaction" `Slow test_interned_ids_bounded;
    Alcotest.test_case "chain pinned: grqc tbi" `Quick test_chain_pinned_grqc_tbi;
    Alcotest.test_case "chain pinned: epinions jdd" `Quick test_chain_pinned_epinions_jdd;
    Alcotest.test_case "transient records: rebuild neutral" `Quick
      test_transient_records_draw_nothing;
    Alcotest.test_case "undrawn measurements refuse rebuild" `Quick
      test_undrawn_rebuild_refused;
    Alcotest.test_case "measurement save/load keeps drawing" `Quick
      test_measurement_roundtrip_keeps_drawing;
    Alcotest.test_case "grid overflow raises" `Quick test_grid_overflow_raises;
    Alcotest.test_case "clean audit allocates little" `Slow test_clean_audit_allocates_little;
    Alcotest.test_case "audit leaves a fresh build's ids" `Quick test_audit_compacts;
    Alcotest.test_case "first step after a build allocates little" `Slow
      test_first_step_after_build_allocates_little;
    test_growth_past_build_size;
  ]
