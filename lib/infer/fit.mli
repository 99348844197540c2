(** Fitting a synthetic graph to wPINQ measurements with the edge-swap walk
    (paper, Section 5.1, Phase 2).

    A fit owns a mutable synthetic graph mirrored into an incremental
    dataflow engine.  Every Metropolis–Hastings step proposes a double-edge
    swap (degree-preserving), feeds the swap's 8-record delta through the
    engine {e speculatively} (under the engine's undo log), and reads the
    updated posterior energy off the measurement targets — so a step costs
    the delta's propagation, not a query re-execution.  An accepted move
    commits the speculation; a rejected one reverts the O(1) graph edit and
    aborts, rolling the engine back in O(cells touched) instead of paying a
    second DAG propagation for the inverted swap.

    Every build — {!create_shared}, {!restore_shared}, {!rebuild_shared},
    an {!audit}, a compaction and a lookahead replica — is a bulk build:
    each plan node is evaluated once by the batch kernels over the
    symmetric edge dataset, and its engine operator adopts the result as
    state ({!Wpinq_core.Flow.input}'s [~init]).  No build feeds the edge
    list through the incremental handlers; only the walk's deltas take
    them.  The engine accumulates exactly, so its energy is a pure
    function of the current edge multiset and measurements: a fit
    restored from a checkpoint, or rebuilt in place, reads the same bits
    as the live one, which is what makes a resumed chain retrace an
    uninterrupted one exactly.  The walk also rebuilds its own engine,
    bit-neutrally, when the engine's interned ids reach
    [2 × max (post-build ids, compaction_floor)], so memory stays bounded
    on any walk length; an {!audit} is such a rebuild. *)

type t

type measured =
  | Measured : 'a Wpinq_core.Plan.t * 'a Wpinq_core.Measurement.t -> measured
      (** One measurement to fit: a reified query plan paired with the noisy
          observations of that plan over the (discarded) protected data.
          The existential packs plans of different record types into one
          fit. *)

val create_shared :
  rng:Wpinq_prng.Prng.t ->
  seed_graph:Wpinq_graph.Graph.t ->
  source:(int * int) Wpinq_core.Plan.t ->
  measured:measured list ->
  unit ->
  t
(** [create_shared ~rng ~seed_graph ~source ~measured ()] builds the
    engine: the synthetic symmetric-directed edge input bound to [source]
    starts holding [seed_graph]'s edges, each measured plan is lowered
    over it in bulk (Batch-evaluated state, adopted), and each target
    draws the lazy observations its sink's initial records need, in
    ascending record order — the same construction as {!restore_shared}
    at [seed_graph]'s edge array, so both read identical energy bits.  All plans go through
    a single {!Wpinq_core.Flow.Plans} context: plan prefixes shared
    between measurements become one physical dataflow sub-DAG, so each
    MCMC delta propagates through the common prefix once per step.
    Rebuilds (audits, compaction, {!restore_shared}) reconstruct the same
    sharing deterministically.  Observable behaviour — energies,
    acceptance decisions, the final synthetic graph — is bit-identical to
    lowering every plan through its own context (property-tested); only
    the cost changes. *)

val restore_shared :
  rng:Wpinq_prng.Prng.t ->
  n:int ->
  edges:(int * int) array ->
  source:(int * int) Wpinq_core.Plan.t ->
  measured:measured list ->
  unit ->
  t
(** [restore_shared ~rng ~n ~edges ~source ~measured ()] rebuilds a fit
    from checkpointed state: the edge array (positional order significant
    — it is walk state), a restored PRNG, and plans over {e restored}
    measurements, lowered along the same path as {!create_shared}.
    Deterministic given those inputs. *)

exception Build_drew_noise of string
(** Raised when a build over measurements that should already hold every
    observation it can show — a {!rebuild_shared}, an {!audit}, a
    compaction or a lookahead replica — drew fresh lazy noise.  A bulk
    build shows each sink only its final records, so over the fit's own
    edge array and live measurements it never draws (a record the walk
    showed only in passing is not shown again).  It draws when the
    measurements lack an observation the new edges need — a
    {!rebuild_shared} at another graph's edges, say: the draw would shift
    the measurement's noise stream, so the rebuilt chain would silently
    leave the live one.  The measurements have already drawn: discard the
    fit and its measurements. *)

val rebuild_shared :
  t ->
  n:int ->
  edges:(int * int) array ->
  source:(int * int) Wpinq_core.Plan.t ->
  measured:measured list ->
  unit
(** In-place {!restore_shared}: swaps a freshly bulk-built engine state,
    graph, and target set into [t] (the PRNG is kept — its state is
    already exact; the engine object is reset and reused).  Closures capturing [t] — the MCMC driver's — see the new
    state immediately.  Over the fit's own edge array and measurements it
    is bit-neutral: energies, and so the walk that follows, are unchanged.
    The measurements must already hold every observation the new build
    shows (as they do at the fit's own edge array); raises
    {!Build_drew_noise} if the build drew. *)

val compaction_floor : int
(** [2{^18}]: the interned-id count below which a fit's growth never
    triggers a compaction (see {!run}). *)

val graph : t -> Wpinq_graph.Graph.t
(** A snapshot of the current synthetic graph (public; inspect freely). *)

val triangle_count : t -> int
val assortativity : t -> float
(** The current synthetic graph's triangle count and assortativity, equal
    to those of {!graph}, read without building it. *)

val edge_array : t -> (int * int) array
(** The current edge array in walk order — what a checkpoint must persist
    (see {!Wpinq_graph.Graph.Mutable.edge_array}). *)

val nodes : t -> int
val rng : t -> Wpinq_prng.Prng.t

val energy : t -> float
(** Current posterior energy [Σ_i ε_i ‖Q_i(A) − m_i‖₁]. *)

val engine : t -> Wpinq_dataflow.Dataflow.Engine.t
(** The underlying engine, for state-size and work statistics (Figure 6). *)

val targets : t -> Wpinq_core.Flow.Target.t list

val audit : t -> Wpinq_dataflow.Dataflow.Audit.report
(** [audit t] reads the engine's state digests
    ({!Wpinq_dataflow.Dataflow.Engine.digests}) and each target's exact
    distance, rebuilds the fit in place from its own edge array (the
    compaction path; no second engine), and reports every cell or
    distance that differs from the fresh build's.  The fresh build is
    kept either way: a divergence is repaired when [audit] returns, and
    on healthy state the audit is bit-neutral (exact accumulation).
    Raises {!Build_drew_noise} if the build drew noise. *)

val run :
  t ->
  steps:int ->
  ?start:int ->
  ?pow:float ->
  ?audit_every:int ->
  ?should_stop:(unit -> bool) ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(step:int -> stats:Mcmc.stats -> unit) ->
  ?on_step:(step:int -> energy:float -> unit) ->
  ?jobs:int ->
  ?on_batch:(dispatched:int -> consumed:int -> unit) ->
  ?width:Mcmc.width ->
  ?counters:Mcmc.counters ->
  unit ->
  Mcmc.stats
(** Runs the speculative lookahead walk ({!Mcmc.run_lookahead}) for
    iterations [start + 1 .. steps] (default [start] 0, [pow] 1.0; the
    paper's experiments use 10⁴).  [audit_every] (default off) runs
    {!audit} at that cadence, feeding divergence counts into
    {!Mcmc.stats}; any replicas are rebuilt from this fit only after a
    divergence.  [should_stop], [checkpoint_every],
    [on_checkpoint] and [on_step] pass through to {!Mcmc.run_lookahead}.

    Between lookahead batches the fit compacts itself: once the engine's
    interned ids reach [2 × max (b, compaction_floor)], [b] their count
    after its last build (or audit), it rebuilds in place from its own
    edge array (into the same engine) — bit-neutral, so the chain does not
    move.  So the engine never holds more than [2 × max (b,
    compaction_floor)] interned ids plus one batch's growth: twice the
    post-build footprint, or, for a small fit, a fixed 2{^19} ids (a few
    tens of megabytes of interns, tables and pair caches).  Any replicas
    are rebuilt from this fit when one of them has grown.

    [jobs] (default 1) is the evaluator count, this fit included.  Each
    batch is split into [jobs] contiguous slices: this fit evaluates
    slice 0 on the calling domain, and [jobs - 1] replica engines, one
    per extra domain, evaluate the others ([jobs = 1]: no replica, no
    domain, no measurement copy).  Every evaluator stops at its slice's
    first winner.  This fit keeps its own winner open and commits it in
    place; a replica's winner reaches it as an O(delta) committed delta.
    The pool is torn down (worker domains joined, an open winner aborted)
    on every exit path, including exceptions raised by hooks or pool
    construction.  The realized chain is bit-identical for every [jobs]
    {e and} every [width] (the per-step split-stream discipline; default
    width [Fixed jobs]).  [on_batch] reports each batch's dispatched width
    and consumed prefix, for throughput/efficiency accounting.  [counters]
    accumulates per-phase wall time — dispatch/eval in the pool,
    resolve/commit in the scheduler — and the realized width trajectory:
    [dispatch_us] is 0 when no replica is posted, [eval_us] covers this
    fit's own slice and the wait for the replicas, and [commit_us] the
    in-place or delta commit of each winner. *)
