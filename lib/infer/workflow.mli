(** The end-to-end graph synthesis workflow of Section 5.1.

    Phase 0 (measure): run wPINQ queries against the protected graph,
    recording noisy measurements and debiting the privacy budget; the
    protected graph is then discarded.  Phase 1 (seed): post-process the
    degree measurements into a consistent degree sequence and generate a
    random seed graph matching it.  Phase 2 (fit): run the edge-swap
    Metropolis–Hastings walk, scoring candidates against the remaining
    measurements through the incremental engine.

    Everything here consumes only released measurements — the [secret]
    graph is touched exclusively through {!Wpinq_core.Batch} aggregations
    whose costs appear in the returned budget log. *)

module Measurement = Wpinq_core.Measurement

type seed_measurements = {
  epsilon : float;  (** per-query ε (total seed cost: 3 × this) *)
  deg_seq : int Measurement.t;  (** noisy non-increasing degree sequence *)
  ccdf : int Measurement.t;  (** noisy degree CCDF *)
  node_count : unit Measurement.t;  (** noisy |V| / 2 *)
}

val measure_seed :
  rng:Wpinq_prng.Prng.t ->
  epsilon:float ->
  sym:(int * int) Wpinq_core.Batch.t ->
  seed_measurements
(** Takes the three Phase-1 measurements (cost [3 ε]: each query uses the
    symmetric edge source once). *)

val fit_degrees : seed_measurements -> int array
(** Reconciles the noisy degree sequence and CCDF into a single
    non-increasing integer degree sequence via the lowest-cost grid path
    (Section 3.1); the estimated node count bounds the sequence length. *)

val fit_degrees_pava_only : seed_measurements -> int array
(** Ablation baseline: isotonic regression of the degree sequence alone
    (Hay et al.'s original post-processing), ignoring the CCDF. *)

val seed_graph : rng:Wpinq_prng.Prng.t -> degrees:int array -> Wpinq_graph.Graph.t
(** A uniform random simple graph approximately realizing [degrees]
    (erased configuration model). *)

(** Which motif query drives Phase 2. *)
type query =
  | Tbd of int  (** triangles by degree, with bucket size (Section 5.2); cost 9 ε *)
  | Tbi  (** triangles by intersect (Section 5.3); cost 4 ε *)
  | Sbi  (** squares by intersect (our Section 3.5 extension); cost 6 ε *)
  | Jdd  (** joint degree distribution (Section 3.2) — the workshop-paper
             workflow the paper builds on; cost 4 ε *)

val query_cost : query -> float -> float
(** [query_cost q eps] is the privacy cost of measuring [q] at [eps] —
    {e derived} by reifying the query over a {!Wpinq_core.Plan} source and
    counting source uses with {!Wpinq_core.Plan.uses}, not asserted by
    hand. *)

type query_measurement

val measure_query :
  rng:Wpinq_prng.Prng.t ->
  epsilon:float ->
  sym:(int * int) Wpinq_core.Batch.t ->
  query ->
  query_measurement

val measure_queries :
  rng:Wpinq_prng.Prng.t ->
  epsilon:float ->
  sym:(int * int) Wpinq_core.Batch.t ->
  query list ->
  query_measurement list
(** Measures several queries through one shared plan-lowering context
    ({!Wpinq_core.Batch.Plans}): the pipelines are reified over the
    workflow's shared plan source, optimized
    ({!Wpinq_core.Plan.optimize}: released values are
    bit-identical to the unoptimized plans'), and lowered so that shared
    pipeline prefixes evaluate once.  Each query's aggregation still
    debits its own [{!Wpinq_core.Plan.uses} × epsilon] from the source
    budget (the optimizer preserves [uses] exactly). *)

val shared_measured :
  query_measurement list -> (int * int) Wpinq_core.Plan.t * Fit.measured list
(** [shared_measured qms] reifies the measured queries over the workflow's
    shared plan source and optimizes them, ready for {!Fit.create_shared}
    — common prefixes (degrees, paths, the path-degree join) become shared
    plan nodes, so the fit propagates each MCMC delta through them once
    per step.  Because the source leaf is shared module-wide and
    {!Wpinq_core.Plan.optimize} caches on the canonical hash, every fit,
    tenant, and stream epoch of the process lowers the {e same} optimized
    DAG — repeat submissions are answered from the plan cache. *)

type trace_point = {
  step : int;
  triangles : int;
  assortativity : float;
  energy : float;
}

type result = {
  synthetic : Wpinq_graph.Graph.t;  (** the fitted synthetic graph *)
  seed : Wpinq_graph.Graph.t;  (** the Phase-1 seed graph *)
  stats : Mcmc.stats;
  trace : trace_point list;  (** oldest first; includes step 0 (the seed) *)
  total_epsilon : float;  (** budget actually spent *)
}

type checkpoint_sink =
  | Single of string
      (** one file, overwritten in place (atomically: the previous snapshot
          survives an interrupted write) *)
  | Store of Wpinq_persist.Persist.Store.t
      (** a generational store: each snapshot becomes a new
          [ckpt-<step>.wpq] generation with retention/rotation, and
          {!resume_latest} can fall back past corrupted generations *)

type checkpoint_spec = { every : int; sink : checkpoint_sink }
(** Write a crash-recovery snapshot every [every] MCMC steps. *)

exception Corrupt_checkpoint of string
(** Raised by {!resume}/{!resume_latest} when no usable checkpoint exists.
    The message names the file, the failing layer (container verification
    vs. payload decode), and — for a generational store — every generation
    tried and why each was rejected.  Also raised when a snapshot decodes
    but its recorded optimized-plan hashes disagree with the plans this
    binary re-derives (checkpoint v7): resuming would silently walk a
    different dataflow than the checkpointed chain. *)

val synthesize :
  ?pow:float ->
  ?steps:int ->
  ?trace_every:int ->
  ?audit_every:int ->
  ?jobs:int ->
  ?width:Mcmc.width ->
  ?counters:Mcmc.counters ->
  ?checkpoint:checkpoint_spec ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?queries:query list ->
  rng:Wpinq_prng.Prng.t ->
  epsilon:float ->
  query:query option ->
  secret:Wpinq_graph.Graph.t ->
  unit ->
  result
(** The full pipeline at per-query cost [epsilon]: seed measurements
    ([3 ε]), optional triangle query, seed generation, and [steps]
    (default 100_000) MCMC iterations at [pow] (default 10_000, the
    paper's setting), tracing triangle count and assortativity of the
    public synthetic graph every [trace_every] steps (default
    [steps / 20]).  [query = None] stops after Phase 1 (the seed graph is returned as
    [synthetic], with an empty walk).

    [queries] (default [[]]) adds further motif queries: all of them —
    [query] first, then [queries] in order — are measured through one
    shared {!Wpinq_core.Batch.Plans} context (total cost
    [Σ query_cost q epsilon]) and fitted {e together} as one multi-target
    walk over shared plans ({!Fit.create_shared}): the posterior energy is
    the sum over targets, and plan prefixes shared between queries (the
    degree pipeline of JDD and TbD, say) propagate each swap's delta once
    per step.  [query = None] with [queries = []] is the seed-only run
    above; [query = None] with non-empty [queries] runs Phase 2 on just
    [queries].

    With [checkpoint], Phase 2 snapshots its complete walk state every
    [every] steps and keeps walking: the engine accumulates exactly, so its
    state is a pure function of what the snapshot records, and a run
    killed at any point and {!resume}d from the latest snapshot produces a
    bit-identical final result.  Checkpointing does not move the chain: a
    run with any cadence, or none, releases the same bytes.  Snapshots
    contain only released values (noisy
    measurements, budget audit log, public graphs, PRNG cursor) — never the
    protected graph.  [checkpoint] is ignored when [query = None] (no walk
    runs).

    [audit_every] ([0], the default, disables) runs the engine self-audit
    at that cadence during Phase 2: incremental state is cross-validated,
    bit for bit, against a from-scratch batch recomputation, divergences
    are counted into {!Mcmc.stats} (and
    persisted in checkpoints), and divergent state is rebuilt from batch
    before the walk continues.  A clean audit is bit-neutral.

    [jobs] (default 1) is the parallel speculative-lookahead evaluator
    count: Phase 2 evaluates batches of consecutive proposals
    concurrently, on the fit's own engine and [jobs - 1] replica engines,
    one per extra domain ({!Fit.run}'s lookahead walk).  [width] (default
    [Mcmc.Fixed jobs]) is the batch width.  The realized chain, the
    trace, the final graph and the checkpoint bytes are bit-identical for
    every [jobs] value {e and} every [width]; only wall-clock time
    changes.  [jobs] is recorded in checkpoints as
    the resume default; [width] and [counters] (per-phase timing) are
    runtime-only and never persisted.

    [stop] (polled between batches) and [deadline]
    (wall-clock seconds from run start) request a graceful stop: the
    in-flight batch finishes, one final snapshot of the stopped state is
    written to the checkpoint sink (if any), and the partial result is
    returned with [stats.interrupted = true].  Wire [stop] to
    {!Shutdown.requested} for SIGINT/SIGTERM handling. *)

val resume :
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?jobs:int ->
  ?width:Mcmc.width ->
  ?counters:Mcmc.counters ->
  path:string ->
  unit ->
  result
(** [resume ~path ()] loads the snapshot at [path] and continues the
    interrupted walk to completion, checkpointing onward with the original
    cadence to the same [path].  The returned {!result} — graph, stats,
    trace, energies — is bit-identical to what the uninterrupted run would
    have returned.  Raises {!Corrupt_checkpoint} on any invalid file.
    [stop]/[deadline]/[width]/[counters] as in {!synthesize}.  [jobs]
    overrides the snapshot's recorded worker count — safe at any value,
    since the realized chain is width-invariant. *)

val resume_latest :
  ?log:(string -> unit) ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?jobs:int ->
  ?width:Mcmc.width ->
  ?counters:Mcmc.counters ->
  store:Wpinq_persist.Persist.Store.t ->
  unit ->
  result
(** [resume_latest ~store ()] walks the store's checkpoint generations
    newest-first: each invalid generation (corrupted container, failing
    decode) is quarantined to a [.corrupt] file with its reason recorded
    and reported through [log], and the walk resumes from the newest valid
    one — checkpointing onward into the same store.  Raises
    {!Corrupt_checkpoint} naming every rejected generation when none is
    valid.  [stop]/[deadline] as in {!synthesize}. *)

val checkpoint_step : string -> int
(** [checkpoint_step path] is the number of completed MCMC steps recorded
    in the snapshot at [path] (diagnostic; raises {!Corrupt_checkpoint} on
    an invalid file). *)

val checkpoint_stream : string -> int * int
(** [checkpoint_stream path] is the stream position recorded in the
    snapshot at [path]: the re-release epoch index and the ingest-journal
    sequence number that epoch consumed ([(-1, 0)] for snapshots written
    by plain, non-stream runs).  Raises {!Corrupt_checkpoint} on an
    invalid file. *)

val checkpoint_epsilon : string -> float
(** [checkpoint_epsilon path] is the privacy budget already spent by the
    run recorded in the snapshot at [path].  The stream supervisor uses it
    to settle a degraded epoch honestly: noise recorded in a durable
    snapshot has been released and must be accounted as spent even though
    the epoch never completed.  Raises {!Corrupt_checkpoint}. *)

val fit_stream :
  ?pow:float ->
  ?steps:int ->
  ?trace_every:int ->
  ?audit_every:int ->
  ?jobs:int ->
  ?width:Mcmc.width ->
  ?counters:Mcmc.counters ->
  ?checkpoint:checkpoint_spec ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  rng:Wpinq_prng.Prng.t ->
  budget:Wpinq_core.Budget.t ->
  epsilon:float ->
  warm:Wpinq_graph.Graph.t ->
  qms:query_measurement list ->
  epoch:int ->
  stream_seq:int ->
  unit ->
  result
(** One warm-started re-release epoch of the continual-observation
    stream (driven by the [Wpinq_stream.Supervisor]).  The caller has
    already measured this epoch's queries ([qms], via {!measure_seed} /
    {!measure_queries}) against the evolved secret under the epoch's
    budget allowance ([budget], with [epsilon] the per-use ε recorded
    for diagnostics); [fit_stream] runs the Phase-2 walk from [warm] —
    the previous epoch's synthetic graph adapted to the new degree
    sequence — instead of a cold configuration-model seed.

    With [checkpoint], a step-0 snapshot is written {e before} the first
    step: measurement noise is spent the moment it is drawn, so
    the epoch must be resumable from durable state from that moment on —
    a supervisor crash after measurement re-reads the released values
    instead of re-touching the secret.  Every snapshot records [epoch]
    and [stream_seq] (checkpoint v6) plus the canonical hashes of the
    optimized fit plans (v7), so kill/resume lands mid-stream
    bit-identically — and refuses to land at all if the optimizer would
    now produce different plans; {!resume}/{!resume_latest} continue an
    interrupted epoch unchanged.  All other parameters as in
    {!synthesize}. *)
