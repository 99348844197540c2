module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Plan = Wpinq_core.Plan
module Measurement = Wpinq_core.Measurement
module Gridpath = Wpinq_postprocess.Gridpath
module Isotonic = Wpinq_postprocess.Isotonic
module Persist = Wpinq_persist.Persist
module Codec = Persist.Codec
module Qb = Wpinq_queries.Queries.Make (Batch)
module Qp = Wpinq_queries.Queries.Make (Plan)

type seed_measurements = {
  epsilon : float;
  deg_seq : int Measurement.t;
  ccdf : int Measurement.t;
  node_count : unit Measurement.t;
}

let measure_seed ~rng ~epsilon ~sym =
  {
    epsilon;
    deg_seq = Batch.noisy_count ~rng ~epsilon (Qb.degree_sequence sym);
    ccdf = Batch.noisy_count ~rng ~epsilon (Qb.degree_ccdf sym);
    node_count = Batch.noisy_count ~rng ~epsilon (Qb.node_count sym);
  }

(* Estimated number of vertices: the node-count query weighs each vertex
   0.5.  Clamped away from degenerate values so the fit always has room. *)
let estimated_nodes ms =
  let nc = 2.0 *. Measurement.value ms.node_count () in
  max 2 (int_of_float (Float.round nc))

(* The noisy CCDF continues past the true dmax as pure noise; cut it where
   sustained counts drop below a few noise standard deviations (the analyst
   judgment the paper describes). *)
let estimated_dmax ms ~bound =
  let threshold = Float.max 2.0 (2.0 /. ms.epsilon) in
  let last = ref 0 in
  for y = 0 to bound - 1 do
    if Measurement.value ms.ccdf y >= threshold then last := y
  done;
  min bound (!last + 3)

let fit_degrees ms =
  let x_max = estimated_nodes ms in
  let y_max = max 1 (estimated_dmax ms ~bound:x_max) in
  let v = Array.init x_max (fun x -> Measurement.value ms.deg_seq x) in
  let h = Array.init y_max (fun y -> Measurement.value ms.ccdf y) in
  Gridpath.fit ~v ~h

let fit_degrees_pava_only ms =
  let x_max = estimated_nodes ms in
  let v = Array.init x_max (fun x -> Measurement.value ms.deg_seq x) in
  let fitted = Isotonic.non_increasing v in
  Array.map (fun f -> max 0 (int_of_float (Float.round f))) fitted

let seed_graph ~rng ~degrees = Gen.configuration_model ~degrees rng

type query = Tbd of int | Tbi | Sbi | Jdd

(* One module-level source leaf for every workflow-built plan.  Sources are
   deliberately not hash-consed (a leaf is a binding point), so sharing the
   canonical DAG across calls requires sharing the leaf: with one leaf,
   [Qp.tbd shared_src] is the *same node* in every fit, tenant admission,
   and stream epoch of the process, and [Plan.optimize]'s cache answers
   every re-submission after the first.  Bindings are per-lowering-context,
   so concurrent fits over different data never collide on the leaf. *)
let shared_src = Plan.source ~name:"sym" ()

(* The per-query privacy cost is *derived*: reify the query and count
   root-to-source paths — the multiplier sequential composition applies to
   epsilon.  (The historical hand-verified constants, 9/4/6/4, are what
   this computes; the property tests pin that.) *)
let query_uses q =
  let uses (p : _ Plan.t) = Plan.uses p in
  match q with
  | Tbd bucket -> uses (Qp.tbd ~bucket shared_src)
  | Tbi -> uses (Qp.tbi shared_src)
  | Sbi -> uses (Qp.sbi shared_src)
  | Jdd -> uses (Qp.jdd shared_src)

let query_cost q eps = float_of_int (query_uses q) *. eps

type query_measurement =
  | Mtbd of int * (int * int * int) Measurement.t
  | Mtbi of unit Measurement.t
  | Msbi of unit Measurement.t
  | Mjdd of (int * int) Measurement.t

(* Measures several queries through one shared plan-lowering context: the
   pipelines are reified over the shared source, *optimized* (every rule
   preserves uses, so the budget debit per query still equals
   [Plan.uses q × epsilon]; released values preserved bit for bit), and
   lowered into Batch where shared prefixes become shared lazy datasets
   (evaluated once).  Each root is aggregated separately. *)
let measure_queries ~rng ~epsilon ~sym qs =
  let ctx = Batch.Plans.create () in
  Batch.Plans.bind ctx shared_src sym;
  let count p = Batch.noisy_count ~rng ~epsilon (Batch.Plans.lower ctx (Plan.optimize p)) in
  List.map
    (function
      | Tbd bucket -> Mtbd (bucket, count (Qp.tbd ~bucket shared_src))
      | Tbi -> Mtbi (count (Qp.tbi shared_src))
      | Sbi -> Msbi (count (Qp.sbi shared_src))
      | Jdd -> Mjdd (count (Qp.jdd shared_src)))
    qs

let measure_query ~rng ~epsilon ~sym q =
  match measure_queries ~rng ~epsilon ~sym [ q ] with [ qm ] -> qm | _ -> assert false

(* The shared source + the measured plans over it, optimized, ready for
   [Fit.create_shared]/[restore_shared]/[rebuild_shared].  Hash-consing
   makes the per-query plans share their common prefixes automatically
   (degrees between JDD and TbD, paths2 and the path-degree join between
   TbD and SbD, ...), and [Plan.optimize] both canonicalizes the DAG
   (deterministically — a resume re-derives the identical pipeline) and
   answers repeat submissions from its cache. *)
let shared_measured qms =
  let measured =
    List.map
      (function
        | Mtbd (bucket, m) -> Fit.Measured (Plan.optimize (Qp.tbd ~bucket shared_src), m)
        | Mtbi m -> Fit.Measured (Plan.optimize (Qp.tbi shared_src), m)
        | Msbi m -> Fit.Measured (Plan.optimize (Qp.sbi shared_src), m)
        | Mjdd m -> Fit.Measured (Plan.optimize (Qp.jdd shared_src), m))
      qms
  in
  (shared_src, measured)

let plan_hashes measured =
  List.map (fun (Fit.Measured (p, _)) -> Plan.canonical_hash p) measured

type trace_point = { step : int; triangles : int; assortativity : float; energy : float }

type result = {
  synthetic : Graph.t;
  seed : Graph.t;
  stats : Mcmc.stats;
  trace : trace_point list;
  total_epsilon : float;
}

let trace_of ~step ~energy g =
  { step; triangles = Graph.triangle_count g; assortativity = Graph.assortativity g; energy }

(* ---- Checkpoint format ----------------------------------------------- *)

type checkpoint_sink = Single of string | Store of Persist.Store.t

type checkpoint_spec = { every : int; sink : checkpoint_sink }

exception Corrupt_checkpoint of string

let ckpt_magic = "wpinq-checkpoint\n"

(* Version 9: exact accumulation.  A checkpoint no longer rebuilds the
   live engine, so the snapshot is written from the live measurements, with
   their lazy draws in sorted-record order; the drift-era fields (the refresh
   cadence and the audit tolerance) are gone.  A v8 payload would decode
   with its fields shifted.  (Version 8 kept each measurement's
   measurement-time support apart from its lazy draws, so a resumed fit
   seeds its targets from the support alone.  Version 7 added the
   canonical hash of each optimized fit plan, in target order, which a
   resume re-derives and verifies — catching a changed optimizer or query
   definition that would silently walk a different dataflow.  Version 6
   added the stream position: epoch index and ingest-journal sequence,
   [-1]/[0] for non-stream runs.  Version 5 introduced the per-step
   split-stream discipline of the parallel speculative lookahead and
   [ck_jobs].)  Older snapshots are refused by the version gate. *)
let ckpt_version = 9

(* Everything a resumed chain needs, and nothing protected: the released
   query measurement (noisy counts + noise-stream cursor), the public seed
   and current synthetic graphs, the walk PRNG cursor, the budget audit
   log, and the run bookkeeping.  The secret graph and the seed-phase
   measurements were consumed before the walk began and are never
   written. *)
type ck = {
  ck_epsilon : float;
  ck_pow : float;
  ck_steps : int; (* total steps requested for the whole run *)
  ck_trace_every : int;
  ck_every : int; (* checkpoint cadence *)
  ck_audit_every : int; (* self-audit cadence; 0 = off *)
  ck_jobs : int;
      (* lookahead width the run was started with.  Informational default
         for a resume: the realized chain is invariant to the width, so a
         resume may override it freely without breaking bit-identity. *)
  ck_epoch : int; (* re-release epoch index; -1 for non-stream runs *)
  ck_stream_seq : int; (* ingest-journal sequence consumed by this epoch *)
  ck_step : int; (* completed steps at snapshot time *)
  ck_budget : Budget.t;
  ck_seed : Graph.t;
  ck_n : int;
  ck_edges : (int * int) array; (* synthetic graph, walk order *)
  ck_rng : string;
  ck_accepted : int;
  ck_invalid : int;
  ck_nonfinite : int;
  ck_audits : int;
  ck_divergences : int;
  ck_initial_energy : float;
  ck_trace : trace_point list; (* newest first, as accumulated *)
  ck_qms : query_measurement list;
      (* fit targets, in target order: the live measurements the walk draws
         its lazy noise into *)
  ck_plan_hashes : string list;
      (* canonical hash of each optimized fit plan, in target order —
         verified against the re-derived plans on every resume *)
}

let write_edge buf (u, v) =
  Codec.write_int buf u;
  Codec.write_int buf v

let read_edge r =
  let u = Codec.read_int r in
  let v = Codec.read_int r in
  (u, v)

let write_graph buf g =
  Codec.write_int buf (Graph.n g);
  Codec.write_list write_edge buf (Graph.edges g)

let read_graph r =
  let n = Codec.read_int r in
  let edges = Codec.read_list read_edge r in
  Graph.of_edges ~n edges

let write_trace_point buf p =
  Codec.write_int buf p.step;
  Codec.write_int buf p.triangles;
  Codec.write_float buf p.assortativity;
  Codec.write_float buf p.energy

let read_trace_point r =
  let step = Codec.read_int r in
  let triangles = Codec.read_int r in
  let assortativity = Codec.read_float r in
  let energy = Codec.read_float r in
  { step; triangles; assortativity; energy }

let write_qm buf = function
  | Mtbd (bucket, m) ->
      Codec.write_int buf 0;
      Codec.write_int buf bucket;
      Measurement.save
        (fun buf (a, b, c) ->
          Codec.write_int buf a;
          Codec.write_int buf b;
          Codec.write_int buf c)
        m buf
  | Mtbi m ->
      Codec.write_int buf 1;
      Measurement.save (fun _ () -> ()) m buf
  | Msbi m ->
      Codec.write_int buf 2;
      Measurement.save (fun _ () -> ()) m buf
  | Mjdd m ->
      Codec.write_int buf 3;
      Measurement.save write_edge m buf

let read_qm r =
  match Codec.read_int r with
  | 0 ->
      let bucket = Codec.read_int r in
      let m =
        Measurement.load
          (fun r ->
            let a = Codec.read_int r in
            let b = Codec.read_int r in
            let c = Codec.read_int r in
            (a, b, c))
          r
      in
      Mtbd (bucket, m)
  | 1 -> Mtbi (Measurement.load (fun _ -> ()) r)
  | 2 -> Msbi (Measurement.load (fun _ -> ()) r)
  | 3 -> Mjdd (Measurement.load read_edge r)
  | tag -> raise (Codec.Decode_error (Printf.sprintf "unknown query measurement tag %d" tag))

let encode_ck ck =
  let buf = Buffer.create 4096 in
  Codec.write_float buf ck.ck_epsilon;
  Codec.write_float buf ck.ck_pow;
  Codec.write_int buf ck.ck_steps;
  Codec.write_int buf ck.ck_trace_every;
  Codec.write_int buf ck.ck_every;
  Codec.write_int buf ck.ck_audit_every;
  Codec.write_int buf ck.ck_jobs;
  Codec.write_int buf ck.ck_epoch;
  Codec.write_int buf ck.ck_stream_seq;
  Codec.write_int buf ck.ck_step;
  Budget.save ck.ck_budget buf;
  write_graph buf ck.ck_seed;
  Codec.write_int buf ck.ck_n;
  Codec.write_array write_edge buf ck.ck_edges;
  Codec.write_string buf ck.ck_rng;
  Codec.write_int buf ck.ck_accepted;
  Codec.write_int buf ck.ck_invalid;
  Codec.write_int buf ck.ck_nonfinite;
  Codec.write_int buf ck.ck_audits;
  Codec.write_int buf ck.ck_divergences;
  Codec.write_float buf ck.ck_initial_energy;
  Codec.write_list write_trace_point buf ck.ck_trace;
  Codec.write_list write_qm buf ck.ck_qms;
  Codec.write_list Codec.write_string buf ck.ck_plan_hashes;
  Buffer.contents buf

let decode_ck payload =
  let r = Codec.reader payload in
  let ck_epsilon = Codec.read_float r in
  let ck_pow = Codec.read_float r in
  let ck_steps = Codec.read_int r in
  let ck_trace_every = Codec.read_int r in
  let ck_every = Codec.read_int r in
  let ck_audit_every = Codec.read_int r in
  let ck_jobs = Codec.read_int r in
  if ck_jobs < 1 then
    raise (Codec.Decode_error "checkpoint: jobs must be at least 1");
  let ck_epoch = Codec.read_int r in
  let ck_stream_seq = Codec.read_int r in
  if ck_stream_seq < 0 then
    raise (Codec.Decode_error "checkpoint: negative stream sequence");
  let ck_step = Codec.read_int r in
  let ck_budget = Budget.load r in
  let ck_seed = read_graph r in
  let ck_n = Codec.read_int r in
  let ck_edges = Codec.read_array read_edge r in
  let ck_rng = Codec.read_string r in
  let ck_accepted = Codec.read_int r in
  let ck_invalid = Codec.read_int r in
  let ck_nonfinite = Codec.read_int r in
  let ck_audits = Codec.read_int r in
  let ck_divergences = Codec.read_int r in
  let ck_initial_energy = Codec.read_float r in
  let ck_trace = Codec.read_list read_trace_point r in
  let ck_qms = Codec.read_list read_qm r in
  let ck_plan_hashes = Codec.read_list Codec.read_string r in
  if List.length ck_plan_hashes <> List.length ck_qms then
    raise
      (Codec.Decode_error
         (Printf.sprintf "checkpoint: %d plan hashes for %d fit targets"
            (List.length ck_plan_hashes) (List.length ck_qms)));
  {
    ck_epsilon;
    ck_pow;
    ck_steps;
    ck_trace_every;
    ck_every;
    ck_audit_every;
    ck_jobs;
    ck_epoch;
    ck_stream_seq;
    ck_step;
    ck_budget;
    ck_seed;
    ck_n;
    ck_edges;
    ck_rng;
    ck_accepted;
    ck_invalid;
    ck_nonfinite;
    ck_audits;
    ck_divergences;
    ck_initial_energy;
    ck_trace;
    ck_qms;
    ck_plan_hashes;
  }

(* Rebuilds a checkpoint's fit plans and verifies they canonicalize to the
   hashes the snapshot recorded.  A mismatch means this binary would walk
   a different dataflow than the checkpointed chain — a changed rewrite
   rule, query definition, or estimate — so resuming would silently break
   the bit-identical-retrace guarantee; refuse instead. *)
let shared_measured_verified ck =
  let source, measured = shared_measured ck.ck_qms in
  let got = plan_hashes measured in
  if got <> ck.ck_plan_hashes then
    raise
      (Corrupt_checkpoint
         (Printf.sprintf
            "resume: optimized plan hashes diverge from checkpoint (recorded %s; re-derived %s) \
             — the optimizer or query definitions changed since the snapshot was written"
            (String.concat "," ck.ck_plan_hashes)
            (String.concat "," got)));
  (source, measured)

(* ---- The fitting driver ---------------------------------------------- *)

(* Combine the caller's stop predicate and an optional wall-clock deadline
   into one [should_stop] poll.  The deadline is made absolute here, at run
   (not construction) start; the clock syscall is only paid every 64th
   poll, which bounds the overrun to 64 steps past the deadline. *)
let combined_stop ?stop ?deadline () =
  match (stop, deadline) with
  | None, None -> None
  | _ ->
      let absolute = Option.map (fun d -> Unix.gettimeofday () +. d) deadline in
      let polls = ref 0 in
      Some
        (fun () ->
          (match stop with Some f -> f () | None -> false)
          ||
          match absolute with
          | None -> false
          | Some t ->
              incr polls;
              !polls land 63 = 0 && Unix.gettimeofday () >= t)

(* Continue the walk described by [ck] on [fit] (whose state corresponds to
   [ck.ck_step] completed steps).  When [sink] is set, a snapshot is
   written every [ck.ck_every] steps, and the live walk carries on: the
   engine's state is a pure function of the edge array and the
   measurements it serializes, so a run killed and resumed from that file
   (a fresh build) retraces the uninterrupted run bit for bit, and the
   checkpoint cadence is not part of the chain.  A stop request
   ([should_stop], from a signal or a deadline) additionally writes one
   final snapshot of the stopped state, so the partial run is immediately
   resumable. *)
let continue_fit ?(initial_snapshot = false) ~fit ~rng ~ck ~sink ?should_stop ?width
    ?counters () =
  let trace = ref ck.ck_trace in
  let on_step ~step ~energy =
    if step mod ck.ck_trace_every = 0 then
      trace :=
        { step; triangles = Fit.triangle_count fit; assortativity = Fit.assortativity fit; energy }
        :: !trace
  in
  (* [ck.ck_qms] are the measurements the fit's targets draw into, so the
     snapshot carries every lazy draw made so far. *)
  let snapshot ~step ~(interim : Mcmc.stats) =
    {
      ck with
      ck_step = step;
      ck_edges = Fit.edge_array fit;
      ck_rng = Prng.save rng;
      ck_accepted = ck.ck_accepted + interim.Mcmc.accepted;
      ck_invalid = ck.ck_invalid + interim.Mcmc.invalid;
      ck_nonfinite = ck.ck_nonfinite + interim.Mcmc.refreshed_on_nonfinite;
      ck_audits = ck.ck_audits + interim.Mcmc.audits;
      ck_divergences = ck.ck_divergences + interim.Mcmc.audit_divergences;
      ck_initial_energy =
        (if ck.ck_step = 0 then interim.Mcmc.initial_energy else ck.ck_initial_energy);
      ck_trace = !trace;
    }
  in
  let write_snapshot sink ck' =
    let payload = encode_ck ck' in
    match sink with
    | Single path -> Persist.File.save ~path ~magic:ckpt_magic ~version:ckpt_version payload
    | Store store ->
        ignore
          (Persist.Store.save store ~step:ck'.ck_step ~magic:ckpt_magic ~version:ckpt_version
             payload)
  in
  (* A stream epoch snapshots its state *before* the first step: the
     measurement noise is spent the moment it is drawn, so the epoch must
     be resumable from a state that already contains it — a crash after
     measurement then re-reads the released values instead of re-drawing
     (same bytes either way, since the epoch rng is a pure function of
     (seed, epoch), but the snapshot makes it durable without re-touching
     the secret). *)
  (match sink with
  | Some sink when initial_snapshot ->
      let e = Fit.energy fit in
      let interim =
        {
          Mcmc.steps = 0;
          accepted = 0;
          invalid = 0;
          refreshed_on_nonfinite = 0;
          audits = 0;
          audit_divergences = 0;
          interrupted = false;
          initial_energy = e;
          final_energy = e;
        }
      in
      write_snapshot sink (snapshot ~step:ck.ck_step ~interim)
  | _ -> ());
  let checkpoint_every, on_checkpoint =
    match sink with
    | None -> (None, None)
    | Some sink ->
        ( Some ck.ck_every,
          Some
            (fun ~step ~stats:(interim : Mcmc.stats) ->
              write_snapshot sink (snapshot ~step ~interim)) )
  in
  let seg =
    (* The lookahead walk uses one rng discipline regardless of width, so
       the realized chain and the checkpoint bytes do not depend on it,
       and a run checkpointed at one width resumes bit-identically at
       another.  [width] (the batch-width policy) and [counters] are
       runtime tuning/observability only and are deliberately {e not}
       persisted: the chain is invariant to both. *)
    Fit.run fit ~steps:ck.ck_steps ~start:ck.ck_step ~pow:ck.ck_pow
      ~audit_every:ck.ck_audit_every ?should_stop ?checkpoint_every ?on_checkpoint ~on_step
      ~jobs:ck.ck_jobs ?width ?counters ()
  in
  let completed = ck.ck_step + seg.Mcmc.steps in
  (match (seg.Mcmc.interrupted, sink) with
  | true, Some sink ->
      (* Graceful shutdown: persist the stopped state so resuming loses
         nothing.  At a cadence-aligned stop this re-encodes the state the
         last snapshot recorded, so the file is byte-identical to the one
         already on disk. *)
      write_snapshot sink (snapshot ~step:completed ~interim:seg)
  | _ -> ());
  let stats =
    {
      Mcmc.steps = completed;
      accepted = ck.ck_accepted + seg.Mcmc.accepted;
      invalid = ck.ck_invalid + seg.Mcmc.invalid;
      refreshed_on_nonfinite = ck.ck_nonfinite + seg.Mcmc.refreshed_on_nonfinite;
      audits = ck.ck_audits + seg.Mcmc.audits;
      audit_divergences = ck.ck_divergences + seg.Mcmc.audit_divergences;
      interrupted = seg.Mcmc.interrupted;
      initial_energy =
        (if ck.ck_step = 0 then seg.Mcmc.initial_energy else ck.ck_initial_energy);
      final_energy = seg.Mcmc.final_energy;
    }
  in
  {
    synthetic = Fit.graph fit;
    seed = ck.ck_seed;
    stats;
    trace = List.rev !trace;
    total_epsilon = Budget.spent ck.ck_budget;
  }

let synthesize ?(pow = 10_000.0) ?(steps = 100_000) ?trace_every ?(audit_every = 0) ?(jobs = 1)
    ?width ?counters ?checkpoint ?stop ?deadline ?(queries = []) ~rng ~epsilon ~query ~secret
    () =
  let trace_every =
    match trace_every with Some t -> max 1 t | None -> max 1 (steps / 20)
  in
  (* The fit's target list: the legacy single [query] (if any) followed by
     any extra [queries], measured and fitted together over shared plans. *)
  let qs = Option.to_list query @ queries in
  let total_budget =
    (3.0 *. epsilon) +. List.fold_left (fun acc q -> acc +. query_cost q epsilon) 0.0 qs
  in
  let budget = Budget.create ~name:"secret-graph" total_budget in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  (* Phase 0/1: measure, discard the secret, build the seed. *)
  let seed_ms = measure_seed ~rng ~epsilon ~sym in
  let degrees = fit_degrees seed_ms in
  let seed = seed_graph ~rng ~degrees in
  match qs with
  | [] ->
      {
        synthetic = seed;
        seed;
        stats =
          {
            Mcmc.steps = 0;
            accepted = 0;
            invalid = 0;
            refreshed_on_nonfinite = 0;
            audits = 0;
            audit_divergences = 0;
            interrupted = false;
            initial_energy = 0.0;
            final_energy = 0.0;
          };
        trace = [ trace_of ~step:0 ~energy:0.0 seed ];
        total_epsilon = Budget.spent budget;
      }
  | qs ->
      let qms = measure_queries ~rng ~epsilon ~sym qs in
      (* Phase 2: fit the seed to the query measurements, all lowered
         through one shared plan context. *)
      let source, measured = shared_measured qms in
      let fit = Fit.create_shared ~rng ~seed_graph:seed ~source ~measured () in
      let ck0 =
        {
          ck_epsilon = epsilon;
          ck_pow = pow;
          ck_steps = steps;
          ck_trace_every = trace_every;
          ck_every = (match checkpoint with Some c -> max 1 c.every | None -> 0);
          ck_audit_every = max 0 audit_every;
          ck_jobs = max 1 jobs;
          ck_epoch = -1;
          ck_stream_seq = 0;
          ck_step = 0;
          ck_budget = budget;
          ck_seed = seed;
          ck_n = Graph.n seed;
          ck_edges = [||] (* written fresh at each checkpoint *);
          ck_rng = "";
          ck_accepted = 0;
          ck_invalid = 0;
          ck_nonfinite = 0;
          ck_audits = 0;
          ck_divergences = 0;
          ck_initial_energy = 0.0;
          ck_trace = [ trace_of ~step:0 ~energy:(Fit.energy fit) seed ];
          ck_qms = qms;
          ck_plan_hashes = plan_hashes measured;
        }
      in
      let sink = match checkpoint with Some c -> Some c.sink | None -> None in
      continue_fit ~fit ~rng ~ck:ck0 ~sink
        ?should_stop:(combined_stop ?stop ?deadline ())
        ?width ?counters ()

let load_ck path =
  match Persist.File.load ~path ~magic:ckpt_magic ~version:ckpt_version with
  | Error e ->
      raise
        (Corrupt_checkpoint
           (Printf.sprintf "%s: container layer: %s" path (Persist.File.error_to_string e)))
  | Ok payload -> (
      try decode_ck payload
      with Codec.Decode_error msg ->
        raise (Corrupt_checkpoint (Printf.sprintf "%s: decode layer: %s" path msg)))

let resume_fit ?jobs ?width ?counters ~ck ~sink ?should_stop () =
  (* The realized chain is invariant to the lookahead width, so a resume may
     run wider (or narrower) than the original — or under a different width
     policy — without breaking the bit-identical retrace; the jobs override
     is also recorded in subsequent snapshots. *)
  let ck = match jobs with Some j -> { ck with ck_jobs = max 1 j } | None -> ck in
  let rng = Prng.restore ck.ck_rng in
  let source, measured = shared_measured_verified ck in
  (* The snapshot's measurements hold every observation its edge array
     can show, so the rebuild must draw nothing. *)
  let cursors () = List.map (fun (Fit.Measured (_, m)) -> Measurement.mark m) measured in
  let before = cursors () in
  let fit = Fit.restore_shared ~rng ~n:ck.ck_n ~edges:ck.ck_edges ~source ~measured () in
  if cursors () <> before then
    raise (Fit.Build_drew_noise "Workflow.resume: rebuilding from the checkpoint drew fresh noise");
  continue_fit ~fit ~rng ~ck ~sink ?should_stop ?width ?counters ()

let resume ?stop ?deadline ?jobs ?width ?counters ~path () =
  let ck = load_ck path in
  resume_fit ?jobs ?width ?counters ~ck ~sink:(Some (Single path))
    ?should_stop:(combined_stop ?stop ?deadline ())
    ()

let resume_latest ?(log = fun _ -> ()) ?stop ?deadline ?jobs ?width ?counters ~store () =
  let decode payload =
    match decode_ck payload with
    | ck -> Ok ck
    | exception Codec.Decode_error msg -> Error msg
  in
  let found, rejected =
    Persist.Store.load_latest store ~magic:ckpt_magic ~version:ckpt_version ~decode
  in
  List.iter
    (fun { Persist.Store.path; reason } ->
      log (Printf.sprintf "rejected checkpoint generation %s: %s" path reason))
    rejected;
  match found with
  | Some (ck, step, path) ->
      log (Printf.sprintf "resuming from generation %s (step %d)" path step);
      resume_fit ?jobs ?width ?counters ~ck ~sink:(Some (Store store))
        ?should_stop:(combined_stop ?stop ?deadline ())
        ()
  | None ->
      let detail =
        match rejected with
        | [] -> "no checkpoint generations present"
        | rs ->
            Printf.sprintf "tried %d generation(s), all rejected: %s" (List.length rs)
              (String.concat "; "
                 (List.map (fun { Persist.Store.path; reason } -> path ^ " (" ^ reason ^ ")") rs))
      in
      raise
        (Corrupt_checkpoint
           (Printf.sprintf "no valid checkpoint generation in %s: %s" (Persist.Store.dir store)
              detail))

let checkpoint_step path = (load_ck path).ck_step

let checkpoint_stream path =
  let ck = load_ck path in
  (ck.ck_epoch, ck.ck_stream_seq)

let checkpoint_epsilon path = Budget.spent (load_ck path).ck_budget

(* ---- Continual observation: one re-release epoch ---------------------- *)

(* One warm-started re-release epoch of the continual-observation stream.
   The caller (the stream supervisor) has already measured this epoch's
   queries against the evolved secret under the epoch's budget allowance;
   this runs the fit from [warm] — the previous epoch's synthetic graph
   adapted to the new degree sequence — instead of a cold
   configuration-model seed.  When a checkpoint sink is given, a step-0
   snapshot is written before the walk, so a crash at
   any point after measurement resumes from durable state; every snapshot
   records [epoch] and [stream_seq], landing a killed supervisor back
   mid-stream bit-identically. *)
let fit_stream ?(pow = 10_000.0) ?(steps = 100_000) ?trace_every ?(audit_every = 0) ?(jobs = 1)
    ?width ?counters ?checkpoint ?stop ?deadline ~rng ~budget ~epsilon ~warm ~qms ~epoch
    ~stream_seq () =
  let trace_every =
    match trace_every with Some t -> max 1 t | None -> max 1 (steps / 20)
  in
  let source, measured = shared_measured qms in
  let fit = Fit.create_shared ~rng ~seed_graph:warm ~source ~measured () in
  let ck0 =
    {
      ck_epsilon = epsilon;
      ck_pow = pow;
      ck_steps = steps;
      ck_trace_every = trace_every;
      ck_every = (match checkpoint with Some c -> max 1 c.every | None -> 0);
      ck_audit_every = max 0 audit_every;
      ck_jobs = max 1 jobs;
      ck_epoch = epoch;
      ck_stream_seq = stream_seq;
      ck_step = 0;
      ck_budget = budget;
      ck_seed = warm;
      ck_n = Graph.n warm;
      ck_edges = [||];
      ck_rng = "";
      ck_accepted = 0;
      ck_invalid = 0;
      ck_nonfinite = 0;
      ck_audits = 0;
      ck_divergences = 0;
      ck_initial_energy = 0.0;
      ck_trace = [ trace_of ~step:0 ~energy:(Fit.energy fit) warm ];
      ck_qms = qms;
      ck_plan_hashes = plan_hashes measured;
    }
  in
  let sink = match checkpoint with Some c -> Some c.sink | None -> None in
  continue_fit
    ~initial_snapshot:(Option.is_some sink)
    ~fit ~rng ~ck:ck0 ~sink
    ?should_stop:(combined_stop ?stop ?deadline ())
    ?width ?counters ()
