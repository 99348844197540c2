(** Reified wPINQ query plans: one hash-consed DAG, many execution targets.

    {!Batch} and {!Flow} both implement {!Lang.S} directly, so a query
    functor can run against either — but each instantiation {e is} its
    execution: building [Queries.Make (Flow)] twice builds two physical
    dataflow pipelines even when the query texts coincide.  A {!t} instead
    {e reifies} the query as a first-class value: a typed operator DAG,
    built once and lowered as many times — and into as many interpreters —
    as needed.

    Nodes are {e hash-consed}: constructing a node whose operator, embedded
    closures (compared physically — a closed lambda is allocated once,
    statically, even across functor instantiations) and children all match
    an existing node returns that node.  Equal subtrees therefore get equal
    ids automatically; [Queries.Make (Plan)] instantiated twice yields
    physically identical DAGs, and cross-query sharing no longer depends on
    analysts reusing values by hand.  Only {!source} leaves are exempt: a
    source is a binding point, and distinct leaves express deliberately
    unshared inputs.

    Reification also makes the privacy bookkeeping a checkable artifact
    rather than a documentation claim: {!uses} derives the number of times a
    plan touches each protected source — the multiplier sequential
    composition applies to ε (paper, Section 2.3) and the exact quantity
    {!Batch.charge} debits.  The per-query costs documented in
    {!Wpinq_queries.Queries} are property-tested against this function.

    On top of the canonical DAG sits {!optimize}: cost-guided, privacy-sound
    rewrites (filter fusion and pushdown, distinct fusion, join operand
    reordering, and select fusion), each preserving {!uses} and
    {!source_uses} exactly — derived ε charges never move — and released
    measurement values bit for bit. *)

type 'a t
(** A reified query over records of type ['a]: one node of a typed,
    hash-consed operator DAG.  Immutable; cheap to build;
    interpreter-independent. *)

include Lang.S with type 'a t := 'a t

val source : ?name:string -> unit -> 'a t
(** A fresh source leaf — the placeholder a lowering later binds to a
    concrete collection ({!Batch.Plans.bind} to a protected batch
    collection, {!Flow.Plans.bind} to a synthetic dataflow input).  [name]
    (default ["source"]) appears in diagnostics and {!source_uses}.
    Sources are never hash-consed: every call returns a distinct leaf, so
    deliberately unshared analyses stay unshared.  To share one input
    across many fits, hold on to a single source value and build every
    pipeline over it. *)

val id : 'a t -> int
(** The node's unique id.  Ids are allocated from one global counter, so
    equal ids imply physical equality; lowerings key their memo tables on
    this.  Hash-consing makes the converse useful too: structurally equal
    plans (same operators, same closures, same children) have equal ids. *)

val is_source : 'a t -> bool

val operator : 'a t -> string
(** The root operator's name ("source", "select", "join", …), for
    diagnostics. *)

val consumers : 'a t -> int
(** How many distinct parent nodes have been interned over this node, over
    the life of the process.  The optimizer's cost guards use this to
    refuse rewrites that would split a shared subtree. *)

val uses : 'a t -> int
(** How many times evaluating this plan touches source leaves, counted with
    path multiplicity: a shared subplan reached through [k] paths
    contributes [k] times its own count, exactly as wPINQ's sequential
    composition charges it.  This is the multiplier {!Batch.charge} applies
    to ε when the plan is lowered and aggregated (property-tested to
    agree).  Counts are memoized per node for the life of the process, so
    deep diamond ladders cost linear work, not one walk per path. *)

val source_uses : 'a t -> (string * int) list
(** Per-source breakdown of {!uses}, one entry per distinct source leaf in
    first-reached order, labelled with the leaf's name. *)

val size : 'a t -> int
(** Number of {e distinct} nodes in the DAG ([size] counts a diamond once;
    {!uses} counts its paths). *)

val canonical_hash : 'a t -> string
(** A hex digest of the plan's structure: operators, scalar parameters,
    source names and wiring.  Embedded closures are {e not} represented
    (they have no canonical form), so the hash identifies the plan's shape
    — equal plans share a hash, and hash-equal plans share a shape but may
    differ in their functions.  Checkpoints record the hash of each
    optimized plan so a resume can verify it re-lowered the same dataflow;
    the {!optimize} cache keys on it (and double-checks node identity). *)

val estimated_size : 'a t -> float
(** A deterministic, structure-only cardinality estimate.  Absolute values
    are meaningless; the optimizer compares siblings to order join
    operands, and ties never reorder. *)

val pp : Format.formatter -> 'a t -> unit
(** Prints the DAG as a deduplicated let-listing, leaves first: one line
    per distinct node, [#id operator scalars <- #child …].  A shared
    subtree appears once and is referenced by id thereafter. *)

val to_dot : ?label:string -> 'a t -> string
(** Graphviz export of the DAG: one node per distinct plan node (sources
    boxed), edges in dataflow direction, each edge labelled [xk] where [k]
    is the number of root-to-parent paths — the multiplicity that edge
    contributes to the child's ε multiplier.  Summing the labels of a
    source leaf's outgoing edges gives its {!source_uses} entry. *)

(** {1 The optimizer} *)

val optimize : 'a t -> 'a t
(** Rewrites the plan bottom-up to a fixpoint under six rules:
    - [where p (where q u)] → [where (q && p) u];
    - [where p (select f u)] → [select f (where (p ∘ f) u)]: filters run
      before projections, shrinking every downstream delta;
    - [distinct b1 (distinct b2 u)] → [distinct (min b1 b2) u];
    - a join puts the operand with the smaller {!estimated_size} on the
      left (flipping the reduce), canonicalizing join order; it fires only
      on a strict inequality;
    - [select f (select g u)] → [select (f ∘ g) u];
    - [select f (join ~reduce u v)] → [join ~reduce:(f ∘∘ reduce) u v].

    Every rule preserves {!uses} and {!source_uses} — derived ε charges
    never move (property-tested) — and released measurements, noise draws
    included, bit for bit: weights are grid ints summed exactly
    ({!Wpinq_weighted.Wdata}), so a rewrite that regroups a sum computes
    the same ints.  Fusion rules are cost-guarded: they only fire when the
    fused child has a single consumer, so shared subtrees are never split.
    Results are cached globally, keyed on {!canonical_hash}: the same
    submitted plan — across fits, tenants, stream epochs — optimizes once
    and lowers to the same physical dataflow.  Deterministic: the same
    plan always yields the same optimized DAG, which is what lets
    checkpoints resume onto bit-identical pipelines. *)

val plan_cache_stats : unit -> int * int
(** [(hits, misses)] of the {!optimize} cache, cumulative for the
    process. *)

val optimizer_fires : unit -> (string * int) list
(** Cumulative count of rewrites applied, per rule name. *)

val hashcons_stats : unit -> int * int
(** [(hits, nodes)]: constructor calls answered from the hash-cons table,
    and distinct nodes allocated (sources included). *)

(** Memoized lowering of plans into any {!Lang.S} interpreter.

    A [ctx] carries the source bindings and the node-id-keyed memo table:
    within one context, every distinct plan node is lowered exactly once,
    and every further reference — inside one plan or across several —
    reuses the first lowering.  Lower several targets' plans through one
    context and their shared prefixes become shared interpreter values:
    shared lazy datasets under {!Batch}, shared physical operator nodes
    under {!Flow}. *)
module type LOWERING = sig
  type 'a target
  (** The interpreter's collection type. *)

  type ctx

  val create : unit -> ctx

  val bind : ctx -> 'a t -> 'a target -> unit
  (** [bind ctx src v] routes the source leaf [src] to the concrete
      collection [v].  Raises [Invalid_argument] if [src] is not a source
      leaf, or if any node has already been lowered through [ctx] —
      rebinding after a lower would leave memoized nodes silently reading
      the old source, so every source must be bound before the first
      {!lower}. *)

  val lower : ctx -> 'a t -> 'a target
  (** Lowers a plan, reusing every node already lowered in this context.
      Raises [Invalid_argument] on a source leaf with no binding, naming
      the leaf. *)

  val nodes_built : ctx -> int
  (** Distinct plan nodes lowered through this context so far. *)

  val nodes_shared : ctx -> int
  (** Memo hits: plan-node references that reused an earlier lowering
      instead of rebuilding it.  [nodes_built + nodes_shared] is the total
      number of node references lowered. *)
end

module Lower (L : Lang.S) : LOWERING with type 'a target = 'a L.t
