(** Incremental, data-parallel dataflow over weighted collections
    (paper, Section 4.3 and Appendix B).

    A query is built once as a DAG of operator nodes over one or more
    {!Input}s.  Feeding a {e delta} — a batch of [(record, weight-change)]
    pairs — to an input propagates through the DAG synchronously: every
    stateful operator keeps its inputs indexed by the key it is
    data-parallel over, recomputes only the parts whose inputs changed, and
    emits the difference between its old and new outputs.  This is what lets
    Metropolis–Hastings re-score a candidate dataset after a small change
    (e.g. one edge swap) in time proportional to the records the change
    touches, instead of re-running the query from scratch.

    {2 Exact accumulation}

    Every weight the engine keeps is an integer on the {!Grid} (2{^-40}
    units, one native int), and every operator emits the difference of a
    record's new and old contribution, both recomputed from state and each
    rounded to the grid once with {!module:Wpinq_weighted.Ops}' formulas —
    never a float delta.  Integer sums are exact and order-free, so every
    operator's state, and every sink, is a pure function of the current
    input: whatever history of feeds, commits and aborts led there, it is
    bit-equal to a fresh build over the same input, and a {!Sink} holds
    exactly what the batch operators compute from that input.

    {2 Bulk builds}

    An engine is built from a dataset, not from one giant delta: an
    {!Input} created with [~init] holds its initial contents, and each
    operator built over nodes holding datasets evaluates its own output
    with the batch kernels ({!module:Wpinq_weighted.Ops}) and takes its
    state from its inputs' and its output's datasets — their record
    indexes become its interns, their grid weights its tables, and
    [Ops.index]'s parts its keyed state.  The state is exactly what a feed
    of the whole input would leave (exact accumulation), so the
    incremental handlers retire the walk's deltas against it unchanged.
    {!Engine.end_build} (or the first feed or speculation) drops the
    datasets.  A {!Sink} built that way starts holding its pipeline's
    output, and {!Sink.deliver_current} hands it on as one delivery.

    Correctness does not depend on delta granularity, but performance does:
    all entries of one [feed] batch that share an operator key are processed
    together, so a weight-preserving change (e.g. an edge swap, which
    removes one edge of a vertex and adds another) keeps Join's key norms
    unchanged and triggers the cheap linear update of Appendix B rather than
    a full per-key recomputation.

    {2 Speculative evaluation}

    A propagation can be made {e speculative}: between
    {!Engine.begin_speculation} and {!Engine.commit}/{!Engine.abort}, every
    stateful cell mutation is recorded in an engine-wide undo log.
    [commit] discards the log; [abort] replays it in reverse, restoring
    every operator's state, every sink, and {!Engine.state_records} to their
    exact pre-speculation bit patterns — in time proportional to the cells
    the propagation touched, with no second DAG propagation and no float
    round-trip drift.  This is how a rejected Metropolis–Hastings move is
    rolled back (propose → speculate → commit/abort); see DESIGN.md,
    "Speculative evaluation & the undo log".

    State is a pure function of the input, so a live engine and a fresh
    build over the same input have equal state digests ({!Engine.digests});
    see DESIGN.md, "Defense in depth". *)

module Grid = Wpinq_weighted.Grid
(** Fixed-point weights, shared with {!Wpinq_weighted.Wdata}. *)

module Audit : sig
  type divergence = {
    cell : string;  (** which cell diverged, e.g. ["join#3.left.norm"], ["target#0.distance"] *)
    maintained : float;  (** the live value (for a digest cell, the live digest) *)
    recomputed : float;  (** the fresh build's value *)
    abs_drift : float;
    ulp_drift : int64;  (** representable floats between the two values (saturating) *)
  }

  type report = { cells_checked : int; divergences : divergence list }

  val ulp_distance : float -> float -> int64

  val divergence : cell:string -> maintained:float -> recomputed:float -> divergence
  (** The report for a cell found to differ from the fresh build's. *)

  val divergence_to_string : divergence -> string
end

module Engine : sig
  type t
  (** A dataflow context: owns the DAG, tracks engine-wide statistics. *)

  val create : unit -> t

  val state_records : t -> int
  (** Number of weighted records currently indexed across all stateful
      operators and sinks — the engine's memory footprint proxy, the
      quantity the paper's [O(Σ_v d_v²)] memory argument (Figure 6) is
      about. *)

  val work : t -> int
  (** Total delta entries processed by operators since creation; a
      machine-independent measure of propagation cost.  Aborted
      speculative propagations count, as does every traffic counter below:
      they are work done.  A bulk build processes no delta. *)

  val join_fast_updates : t -> int
  (** Number of per-key Join updates retired via the Appendix B
      norm-preserving linear path. *)

  val join_full_rescales : t -> int
  (** Number of per-key Join updates that changed the normalizer and forced
      a full per-key rescale. *)

  (** {2 DAG shape and traffic}

      These three counters quantify structural sharing when targets are
      built from reified plans ({!Wpinq_core.Plan}): fewer physical nodes
      built, memo hits recorded as shared, and fewer record deliveries per
      step through the shared prefixes. *)

  val nodes_built : t -> int
  (** Physical operator nodes constructed in this engine since creation
      (every operator, input, and sink allocates at least one). *)

  val nodes_shared : t -> int
  (** Plan-lowering memo hits reported via {!add_shared_nodes}: node
      references that reused an already-built physical node instead of
      constructing a duplicate.  Zero unless targets were built through a
      shared plan-lowering context. *)

  val add_shared_nodes : t -> int -> unit
  (** Credits [n] memo hits to {!nodes_shared}.  Called by plan-lowering
      layers (e.g. {!Wpinq_core.Flow.Plans}); raises [Invalid_argument] on a
      negative count. *)

  val reset : t -> unit
  (** Drops every operator, input and sink built in [t] — their state,
      interns and digest cells — so a new DAG can be built into the same
      engine; a node or input of the dropped DAG must not be used again.
      {!state_records}, {!nodes_built}, {!nodes_shared} and
      {!interned_ids} start over; the traffic, arena and speculation
      counters keep counting.  Raises [Invalid_argument] mid-speculation
      or mid-propagation. *)

  val end_build : t -> unit
  (** Drops the datasets that bulk-built nodes hold for their consumers
      (see "Bulk builds" above).  A node built afterwards over such a node
      starts empty, as one built over a fed input always has.
      {!Input.feed} and {!begin_speculation} call it. *)

  val records_propagated : t -> int
  (** Total record deliveries: at every internal emission, the delta's
      length times the number of subscribers it is delivered to.  Unlike
      {!work} (delta entries {e processed} by operators), this counts the
      fan-out edge traffic that sharing a plan prefix eliminates.  Aborted
      speculative propagations count, as with {!work}. *)

  (** {2 Allocation statistics}

      Operators accumulate output changes in reusable scratch buffers
      (record/weight arrays plus a persistent coalescing table) instead of
      consing fresh lists and hashtables per batch. *)

  val arena_grows : t -> int
  (** Times any operator's scratch buffer had to grow its backing arrays —
      settles to 0 per batch once buffers reach steady-state size. *)

  val arena_reuses : t -> int
  (** Output batches retired entirely through an already-allocated scratch
      buffer (the steady-state, allocation-light path). *)

  (** {2 Interning} *)

  type intern_stats = {
    ids : int;  (** distinct records interned *)
    slots : int;  (** open-addressing slot capacity *)
    displacement : int;
        (** Σ over interned ids of slots past the home slot; [displacement
            / ids] is the mean extra probes per lookup (healthy: about 1) *)
    pair_cache : int;  (** entries in the joins' (left id, right id) pair caches *)
  }

  val intern_stats : t -> intern_stats
  (** Sums over every interning map and join pair cache built in this
      engine; they register at build time, so the propagation path does no
      counting.  Costs one pass over their slot arrays. *)

  val interned_ids : t -> int
  (** Ids ever assigned by the engine's interns (the [ids] of
      {!intern_stats}, kept as a running count).  Interning is monotone, so
      this only grows; a fit rebuilds its engine when it has doubled since
      the build (DESIGN.md, "Record interning"). *)

  (** {2 Speculation}

      At most one speculation can be in progress per engine.  All three
      calls raise [Invalid_argument] when used out of protocol (nested
      [begin_speculation], [commit]/[abort] without a speculation in
      progress, or any of them from inside a propagation). *)

  val begin_speculation : t -> unit
  (** Starts recording an undo log (and ends a bulk build, {!end_build}).
      Costs nothing up front: no snapshot is taken; each subsequent cell
      mutation logs its previous value. *)

  val commit : t -> unit
  (** Accepts everything fed since {!begin_speculation}: discards the undo
      log in O(log length). *)

  val abort : t -> unit
  (** Rejects everything fed since {!begin_speculation}: replays the undo
      log in reverse, restoring operator state, sink contents and
      {!state_records} bit-identically.  The traffic, join-path and arena
      counters keep what the rejected propagation did, and {!commits},
      {!aborts} and {!undo_cells} keep counting.  O(cells touched). *)

  val speculating : t -> bool

  val log_undo : t -> (unit -> unit) -> unit
  (** [log_undo t f] appends [f] to the current undo log ([f] must restore
      one external cell to its pre-mutation value); no-op when no
      speculation is in progress.  This is the hook by which state
      {e derived} from the DAG — e.g. the scoring layer's incrementally
      maintained distances — joins the rollback. *)

  val commits : t -> int
  (** Speculations committed since creation. *)

  val aborts : t -> int
  (** Speculations aborted since creation. *)

  val undo_cells : t -> int
  (** Total undo-log entries ever recorded (committed and aborted): the
      cumulative number of speculative cell mutations. *)

  (** {2 State digests} *)

  val digests : t -> int array
  (** One digest per stateful cell in build order — each operator side's
      weight table, each Join side's key norms, each sink: [Σ (2h + 1) ×
      w] over its records, wrapping, with [h] the hash its intern stores
      and [w] its grid weight.  Order- and id-free, hashes no record; any
      one changed weight moves its cell's digest.  Raises
      [Invalid_argument] mid-speculation. *)

  val digest_cell : t -> int -> string
  (** The name of the [i]-th cell of {!digests}, e.g. ["join#3.left.norm"]. *)

  (**/**)

  val corrupt_join : t -> string option
  (** Test only: moves one record's weight in the first Join side holding
      one, and its key norm with it; returns that side's cell name. *)

  (**/**)
end

(** {1 Interned ids and int-keyed state}

    The hot path works on {e interned dense record ids}: each operator maps
    every distinct record value it sees to a dense [int] once at first
    sight, and all downstream state — weight tables, key membership, the
    undo log's captured slots — is struct-of-arrays over those ids.  Both
    layers are exposed for property testing; see DESIGN.md, "Record
    interning & struct-of-arrays state". *)

module Intern = Wpinq_weighted.Intern
(** The record index, shared with {!Wpinq_weighted.Wdata}.  Deliberately
    append-only and {e not} enrolled in the undo log: an id assigned during
    an aborted speculation stays assigned, which is unobservable because no
    emission or iteration order anywhere follows id order. *)

module Itbl : sig
  type t
  (** A weight table over dense ids: direct-index lookup (no hashing),
      entries stored in committed insertion order, removal by swap-last.
      Under speculation every mutation records its exact structural
      inverse in the engine's undo log, so an abort restores contents,
      insertion order, and {!Engine.state_records} bit-identically —
      the same residue-free guarantee the record-keyed tables gave. *)

  val create : Engine.t -> t

  val size : t -> int
  (** Number of entries (records with nonzero weight). *)

  val mem : t -> int -> bool

  val get : t -> int -> int
  (** The {!Grid} weight of an id, [0] when absent. *)

  val set : t -> int -> int -> unit
  (** [set t id w] stores the grid weight [w]; [0] removes the entry.  All
      functions raise [Invalid_argument] on a negative id. *)

  val bump : t -> int -> int -> int
  (** Adds the change ({!Grid.add}) and returns the {e old} weight. *)

  val to_list : t -> (int * int) list
  (** Entries in insertion order. *)
end

type 'a node
(** A stream of weight changes for records of type ['a]; one vertex of the
    query DAG. *)

type 'a delta = ('a * float) list
(** A batch of weight changes.  Entries may repeat records; weights add. *)

val engine_of : _ node -> Engine.t

module Input : sig
  type 'a t
  (** A root of the DAG: the mutable collection the analyst (or the MCMC
      walk) edits. *)

  val create : ?init:'a Wpinq_weighted.Wdata.t -> Engine.t -> 'a t
  (** [create ~init engine] is an input holding [init], with its node
      holding it for a bulk build until the build ends.  The input adopts
      [init]'s record index ({!Wpinq_weighted.Wdata.keys}) and will add to
      it; [init] itself stays valid.  Without [init] it starts empty. *)

  val node : 'a t -> 'a node

  val feed : 'a t -> 'a delta -> unit
  (** [feed input delta] applies the batch and synchronously propagates all
      consequences through the DAG.  Each weight is rounded to the {!Grid}
      before duplicates are netted; a weight outside [±2{^22}] raises
      {!Grid.Overflow}.  Must not be called re-entrantly from a
      sink callback: a re-entrant call raises [Invalid_argument] (enforced,
      not just documented). *)

  val current : 'a t -> 'a Wpinq_weighted.Wdata.t
  (** The accumulated input collection (for checkpointing and testing). *)
end

(** {1 Stable transformations} *)

val select : ('a -> 'b) -> 'a node -> 'b node
val where : ('a -> bool) -> 'a node -> 'a node

val select_many : ('a -> ('b * float) list) -> 'a node -> 'b node
(** SelectMany's output is linear in each input record's weight, but its
    contributions are rounded to the grid, so the operator keeps its input
    weights and emits [q(new) − q(old)] per produced record. *)

val select_many_list : ('a -> 'b list) -> 'a node -> 'b node
val concat : 'a node -> 'a node -> 'a node
val except : 'a node -> 'a node -> 'a node
val union : 'a node -> 'a node -> 'a node
val intersect : 'a node -> 'a node -> 'a node

val join :
  kl:('a -> 'k) ->
  kr:('b -> 'k) ->
  reduce:('a -> 'b -> 'c) ->
  'a node ->
  'b node ->
  'c node
(** Indexes both inputs by key; a pair's output weight is
    [q(wa × wb / (‖A_k‖+‖B_k‖))].  A delta that leaves a key's norm
    exactly unchanged takes the Appendix B fast path: for each changed
    record and partner it emits [q(new pair weight) − q(old pair weight)],
    touching only matched records.  A delta that changes the norm rescales
    the key's whole output (old cross product out, new cross product in),
    as wPINQ's normalization requires.  Norms are exact grid sums. *)

val group_by : key:('a -> 'k) -> reduce:('a list -> 'r) -> 'a node -> ('k * 'r) node
(** Maintains each part's records in {!Wpinq_weighted.Ops.member_order};
    on change, re-derives the part's prefix emissions with
    {!Wpinq_weighted.Ops.group_part} and emits the difference.  A delivery
    costs, per touched part of [d] members, [O(log d)] comparisons and an
    [O(d)] array shift per changed record, then an [O(d)] walk of the
    positive prefix plus one list of up to [d] members per emitted
    prefix (one, when the part's weights are equal) for [reduce]. *)

val distinct : ?bound:float -> 'a node -> 'a node
(** Weight-capping [Distinct] (stateful: tracks each record's current
    weight to emit the change in the capped value). *)

val shave : ('a -> float Seq.t) -> 'a node -> ('a * int) node
val shave_const : float -> 'a node -> ('a * int) node

(** {1 Sinks} *)

module Sink : sig
  type 'a t
  (** A leaf accumulating the current output collection of a pipeline. *)

  val attach : 'a node -> 'a t

  val engine : 'a t -> Engine.t
  (** The engine this sink's pipeline belongs to (the scoring layer uses it
      to join speculative rollbacks via {!Engine.log_undo}). *)

  val weight : 'a t -> 'a -> float
  val support_size : 'a t -> int
  val current : 'a t -> 'a Wpinq_weighted.Wdata.t
  val to_list : 'a t -> ('a * float) list

  (** {2 Interned-id access}

      The sink interns every record it sees; derived layers (the scoring
      targets) index their own state by these ids and never hash a record
      in the hot path. *)

  val intern_id : 'a t -> 'a -> int
  (** The sink's dense id for [x], assigned on first use (the record need
      not have appeared in the output yet — measurement-time records get
      ids before the walk starts). *)

  val record_of_id : 'a t -> int -> 'a

  val weight_id : 'a t -> int -> int
  (** The {!Grid} weight of a sink id. *)

  val on_delivery : 'a t -> (int array -> int array -> int array -> int -> unit) -> unit
  (** [on_delivery t f] calls [f ids olds news len] once per delivery (one
      upstream emission) after the sink has absorbed all of it: entry [i]
      is sink id [ids.(i)], changed from grid weight [olds.(i)] to
      [news.(i)].  The arrays are borrowed for the call.  Callbacks fire
      during speculative propagation too (and are {e not} re-fired on
      abort — state a callback derives must be enrolled in the undo log via
      {!Engine.log_undo} to survive rollback). *)

  val deliver_current :
    'a t -> (int array -> int array -> int array -> int -> unit) -> unit
  (** [deliver_current t f] hands [f] the sink's current contents as one
      delivery from empty (every old weight 0), as {!on_delivery} would;
      nothing when the sink is empty.  A sink attached to a bulk-built
      pipeline starts holding its output, and this is how a consumer
      retires that output. *)

  val on_change : 'a t -> ('a -> old_weight:float -> new_weight:float -> unit) -> unit
  (** {!on_delivery} one entry at a time, with the weights as floats. *)

  val on_change_id : 'a t -> (int -> 'a -> old_weight:float -> new_weight:float -> unit) -> unit
  (** Like {!on_change}, with the record's sink id passed first. *)
end

val coalesce : 'a delta -> 'a delta
(** Rounds each weight to the {!Grid}, combines duplicate records exactly
    and drops entries that net to zero: {!Wpinq_weighted.Wdata.of_list}'s
    accumulation, listed in the order records first appear.  Exposed for
    tests and for callers assembling composite deltas. *)
