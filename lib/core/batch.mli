(** Whole-input execution of wPINQ queries over protected data.

    A {!t} pairs a lazily-evaluated weighted dataset with a static record of
    how many times each protected source appears in the query plan.  The
    use-count is what sequential composition needs: a query that mentions a
    source [k] times and is aggregated with an ε-DP [NoisyCount] is [k·ε]-DP
    for that source (paper, Section 2.3), so {!noisy_count} debits [k·ε]
    from each source's budget before releasing anything.

    Laziness means building a plan is free; evaluation happens at the first
    aggregation (and is shared: diamonds in the plan evaluate once). *)

type 'a t

include Lang.S with type 'a t := 'a t

val source : budget:Budget.t -> ('a * float) list -> 'a t
(** [source ~budget rows] declares a protected weighted dataset (duplicate
    records accumulate).  Every occurrence of the returned collection in a
    query plan counts as one use of [budget]. *)

val source_records : budget:Budget.t -> 'a list -> 'a t
(** Like {!source} with every listed occurrence given weight [1.0]. *)

val public : ('a * float) list -> 'a t
(** A collection with no privacy cost (auxiliary public data). *)

val uses : 'a t -> (Budget.t * int) list
(** How many times each protected source appears in the plan. *)

val charge : ?label:string -> epsilon:float -> 'a t -> unit
(** [charge ~epsilon c] debits [uses × epsilon] from every source budget
    in the plan, checking every budget before spending any, so a failed
    charge (raising {!Budget.Exhausted}) normally leaves them all
    untouched.  (The check is per-budget: in the corner case of a query
    joining two sibling parts of one {!partition}, a later sibling's
    charge can still fail after an earlier one succeeded — the exception
    then still prevents any release, it merely burns budget
    conservatively.)  This is the accounting step every aggregation
    mechanism performs before releasing output. *)

val partition : keys:'k list -> key:('a -> 'k) -> 'a t -> ('k * 'a t) list
(** PINQ's [Partition]: splits a collection into the disjoint parts
    selected by [keys] (records mapping to unlisted keys are dropped).
    Because the parts are disjoint, aggregations against different parts
    compose {e in parallel}: each source budget is debited the {e maximum}
    spent across the parts of this partition, not the sum
    ({!Budget.parallel_child}).  Partitioning itself costs nothing. *)

val noisy_count :
  rng:Wpinq_prng.Prng.t -> epsilon:float -> 'a t -> 'a Measurement.t
(** The differentially-private aggregation: charges [uses × epsilon] to each
    source's budget (raising {!Budget.Exhausted} and releasing nothing if
    any lacks funds), then releases per-record counts perturbed with
    [Laplace(1/epsilon)] noise.  Weights are {!Wpinq_weighted.Grid} ints:
    a source weight, or a sum, outside [±2{^22}] raises
    {!Wpinq_weighted.Grid.Overflow} when the plan is evaluated, and nothing
    is released.

    The charge comes first, the evaluation second, and that order is part
    of the contract: a plan that raises while it is evaluated (out-of-range
    data, a raising user function) has spent its ε.  Whether a plan raises
    depends on the protected data, so a refusal is itself an observation
    and is paid for like a release. *)

val privacy_cost : epsilon:float -> 'a t -> (string * float) list
(** [privacy_cost ~epsilon c] previews what {!noisy_count} would charge:
    the per-source ε cost of aggregating this plan, by source name. *)

val unsafe_value : 'a t -> 'a Wpinq_weighted.Wdata.t
(** The exact, unnoised contents.  {b Not differentially private} — bypasses
    the budget entirely.  Exists for tests, ground-truth columns in the
    experiment harness, and debugging; never call it on real secrets. *)

module Plans : Plan.LOWERING with type 'a target = 'a t
(** Lowering of reified {!Plan}s into batch collections.  Bind each plan
    source to a {!source} (or {!public}) collection, then [lower] the
    measured plans through one shared context: plan nodes reached by several
    measurements lower to {e one} lazy dataset, evaluated once, and the
    resulting collection's {!uses} equals {!Plan.uses} of the plan
    (property-tested) — so the budget debit is derived from the plan DAG. *)
