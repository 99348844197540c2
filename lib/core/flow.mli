(** Incremental execution of wPINQ queries over a synthetic dataset, with
    live scoring against released measurements.

    This is the fitting half of the platform (paper, Section 4): after the
    protected data has been measured and discarded, the same query text —
    instantiated through this module instead of {!Batch} — runs over a
    public synthetic candidate.  {!Target}s subscribe below each pipeline
    and maintain [‖Q(A) − m‖₁] incrementally as the candidate is edited, so
    a Metropolis–Hastings step costs only the propagation of its delta.

    A collection here holds exactly what {!Batch} computes from the same
    input, bit for bit, whatever edits, commits and aborts led there: both
    keep weights as {!Wpinq_weighted.Grid} ints and round each contribution
    with the same formulas ({!Wpinq_weighted.Ops}). *)

type 'a t
(** A collection in the incremental engine. *)

include Lang.S with type 'a t := 'a t

type 'a collection = 'a t
(** Alias usable where [t] is shadowed (inside {!Target}). *)

type 'a handle
(** The feed side of a synthetic input. *)

val input : ?init:'a Wpinq_weighted.Wdata.t -> Wpinq_dataflow.Dataflow.Engine.t -> 'a handle * 'a t
(** Declares a synthetic (public) input collection, initially empty, or
    holding [init]: then every collection built over it before the
    engine's first feed (or {!Wpinq_dataflow.Dataflow.Engine.end_build})
    is built in bulk — evaluated by the batch kernels, its state adopted
    from their results — instead of from one delta of the whole input
    (see {!Wpinq_dataflow.Dataflow}, "Bulk builds"). *)

val feed : 'a handle -> ('a * float) list -> unit
(** Applies a weight-change batch to the input and propagates it through
    every query and target built on it.  Feed related changes (e.g. all
    edge records of one swap) as {e one} batch: correctness never depends
    on batching, but weight-preserving batches take Join's fast path. *)

val current : 'a handle -> 'a Wpinq_weighted.Wdata.t
(** The synthetic collection as accumulated so far. *)

val node : 'a t -> 'a Wpinq_dataflow.Dataflow.node
(** Escape hatch to the underlying dataflow node (used by tests and custom
    sinks). *)

(** Lowering of reified {!Plan}s into the incremental engine.

    The payoff of reification on the fitting side: lower several targets'
    plans through {e one} context and every shared plan prefix becomes one
    physical dataflow sub-DAG — each MCMC delta propagates through the
    common prefix once per step, feeding all the distance sinks below it.
    Speculation/undo, state digests, and checkpointing are unaffected:
    sharing only changes {e which} nodes exist, and every stateful cell
    still logs its own undo closures and digest exactly once.

    Unlike the interpreter-agnostic {!Plan.Lower}, a context here is tied to
    an engine: memo hits are credited to the engine-wide
    {!Wpinq_dataflow.Dataflow.Engine.nodes_shared} counter as lowering
    proceeds. *)
module Plans : sig
  type ctx

  val create : Wpinq_dataflow.Dataflow.Engine.t -> ctx

  val bind : ctx -> 'a Plan.t -> 'a t -> unit
  (** Route a plan source leaf to a synthetic input (the collection half of
      {!input}).  Raises [Invalid_argument] on a non-source node. *)

  val lower : ctx -> 'a Plan.t -> 'a t
  (** Lower a plan, reusing every node already lowered in this context.
      Raises [Invalid_argument] on an unbound source. *)

  val nodes_built : ctx -> int
  val nodes_shared : ctx -> int
end

module Target : sig
  type t
  (** A fitted measurement: one wPINQ pipeline over the synthetic input,
      scored against the noisy observations [m] of the corresponding
      pipeline over the (discarded) protected input. *)

  val create : 'a collection -> 'a Measurement.t -> t
  (** [create q m] attaches a scoring sink under [q].  The records of
      {!Measurement.support} — those materialized at measurement time —
      contribute [|m x|] immediately; any other record that appears in the
      synthetic output reads its noisy observation through
      {!Measurement.value} (drawing and memoizing it on first request) and
      is scored relative to it.  The records first seen in one sink
      delivery draw in ascending [compare] order, so which noise a record
      gets does not depend on the order the engine delivers records in.
      Over a bulk-built collection the sink starts holding [q]'s output,
      which the target retires as one delivery when it is created.

      Each record's term [|w − m x|] is rounded to the
      {!Wpinq_dataflow.Dataflow.Grid} and the terms are summed exactly, so
      the distance is a pure function of the sink's contents and the
      measurement's memoized values.  The baseline never includes records
      drawn lazily since measurement, so targets over one measurement
      share one energy convention however late they are built: two
      targets whose sinks hold the same records read bit-identical
      distances.  A term outside the grid's range (an observation beyond
      [±2{^22}], i.e. Laplace noise at ε below about [1e-5]) raises
      {!Wpinq_dataflow.Dataflow.Grid.Overflow}.

      The maintained distance participates in speculative evaluation: when
      the engine is speculating (see
      {!Wpinq_dataflow.Dataflow.Engine.begin_speculation}), every distance
      update is enrolled in the undo log, so
      {!Wpinq_dataflow.Dataflow.Engine.abort} restores the distance to its
      exact pre-speculation bit pattern. *)

  val of_plan : Plans.ctx -> 'a Plan.t -> 'a Measurement.t -> t
  (** [of_plan ctx p m] lowers [p] through [ctx] and attaches a scoring sink
      under the result — {!create} over {!Plans.lower}.  Build all of a
      fit's targets through one [ctx] and their shared plan prefixes share
      physical nodes. *)

  val distance : t -> float
  (** Current [‖Q(A) − m‖₁] over all tracked records, up to a constant
      offset [-|m x|] per record outside the measurement-time support
      (constant offsets cancel in the MCMC acceptance ratio; see the
      implementation note). *)

  val weighted_distance : t -> float
  (** [epsilon m × distance t] — this target's term in the posterior energy
      [Σ_i ε_i ‖Q_i(A) − m_i‖₁]. *)

  val epsilon : t -> float

  val exact_distance : t -> Wpinq_dataflow.Dataflow.Grid.Wide.t
  (** A copy of the maintained distance as its exact grid sum. *)

  val recompute : t -> unit
  (** Recomputes the distance from the sink's current state.  On a healthy
      target this changes no bit (the maintained distance is exact); the
      walk calls it only to recover from a non-finite energy reading. *)

  val inject_drift : t -> float -> unit
  (** [inject_drift t dw] corrupts the maintained distance by [dw] (rounded
      to the grid) {e without} touching the underlying sink — a
      fault-injection hook for testing that the fit's self-audit detects
      the divergence and repairs it.  Never call it outside tests. *)

  val energy : t list -> float
  (** [energy targets] is [Σ weighted_distance] — the quantity
      Metropolis–Hastings exponentiates. *)
end
