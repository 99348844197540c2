(** Weighted datasets: the data model of wPINQ (paper, Section 2.1).

    A weighted dataset over a domain ['a] is a finitely-supported function
    [A : 'a -> float]; [A x] is the real-valued multiplicity of record [x].
    Multisets are the special case of non-negative integer weights.  The
    distance between two datasets is the L1 norm of their difference,
    [‖A − B‖ = Σ_x |A x − B x|], and differential privacy for weighted
    datasets is defined with respect to that distance (Definition 1).

    Weights are kept on the {!Grid}: every float weight given to a
    constructor is rounded to the nearest multiple of 2{^-40} once, and
    every sum is an exact integer sum, so a record's weight does not depend
    on the order its contributions arrive in.  A weight, or a sum, outside
    [±2{^22}] raises {!Grid.Overflow}.  A weight that nets to exactly zero
    leaves the support; any other weight, however small, stays.

    Values of this type are immutable: every operation returns a fresh
    dataset.  Records are compared with [compare] (all nans are one record,
    and [-0.] is [0.]; the first one seen is kept) and hashed with the
    polymorphic hash, so any immutable OCaml value (ints, strings, tuples,
    variants...) can serve as a record.  The support is held in
    first-emission order, with each record's hash stored beside it
    ({!Intern}): building hashes each emitted record once, and filtering,
    mapping weights and merging hash none. *)

type 'a t
(** An immutable weighted dataset with records of type ['a]. *)

val empty : unit -> 'a t
(** [empty ()] is the dataset with empty support. *)

val singleton : 'a -> float -> 'a t
(** [singleton x w] is the dataset [{x ↦ w}] (empty if [w] rounds to 0). *)

val of_list : ('a * float) list -> 'a t
(** [of_list assoc] accumulates the weights of duplicate records, as wPINQ
    does implicitly everywhere: [(x, 1.); (x, 0.5)] yields [x ↦ 1.5]. *)

val of_records : 'a list -> 'a t
(** [of_records xs] gives each listed occurrence weight [1.0] (so duplicates
    accumulate), matching the encoding of an input multiset. *)

val to_list : 'a t -> ('a * float) list
(** The support with its weights, in support order (as for {!fold} and
    {!iter}): the order records were first emitted in by the constructor
    that built the dataset.  It depends on how a dataset was computed, not
    only on its contents, so no released value may depend on it. *)

val to_sorted_list : 'a t -> ('a * float) list
(** Like {!to_list} but sorted by record (polymorphic compare), for stable
    printing and testing. *)

val weight : 'a t -> 'a -> float
(** [weight a x] is [A x]; [0.] off the support. *)

val mem : 'a t -> 'a -> bool
(** [mem a x] tests whether [x] has nonzero weight. *)

val support_size : 'a t -> int
(** Number of records with nonzero weight. *)

val norm : 'a t -> float
(** [norm a] is [‖A‖ = Σ_x |A x|] — the "size" of the dataset. *)

val total : 'a t -> float
(** [total a] is [Σ_x A x] (signed, unlike {!norm}). *)

val dist : 'a t -> 'a t -> float
(** [dist a b] is [‖A − B‖], the record-wise L1 distance driving the privacy
    definition and the stability bounds. *)

val add : 'a t -> 'a -> float -> 'a t
(** [add a x w] is the dataset with [w] added to [x]'s weight. *)

val update : 'a t -> ('a * float) list -> 'a t
(** [update a delta] adds every [(x, w)] of [delta] to [a]; the batch
    analogue of feeding a delta to the incremental engine. *)

val scale : float -> 'a t -> 'a t
(** [scale c a] multiplies every weight by [c], rounding each product. *)

val map_weights : ('a -> float -> float) -> 'a t -> 'a t
(** [map_weights f a] replaces each weight [w] of record [x] by [f x w],
    rounded. *)

val merge : (float -> float -> float) -> 'a t -> 'a t -> 'a t
(** [merge f a b] maps each record [x] of either support to [f (A x) (B x)],
    rounded. *)

val filter : ('a -> float -> bool) -> 'a t -> 'a t
(** Keeps the records (with their weights) satisfying the predicate. *)

val fold : ('a -> float -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : ('a -> float -> unit) -> 'a t -> unit

val equal : ?tol:float -> 'a t -> 'a t -> bool
(** [equal ?tol a b] holds when [dist a b <= tol] (default [1e-9]). *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
(** [pp pp_record fmt a] prints [{(x, w); ...}] sorted by record. *)

(** {1 Grid weights}

    The interface the batch operators ({!Ops}) and the incremental engine
    work through, so neither rounds a weight it only moves. *)

val build : int -> (('a -> int -> unit) -> unit) -> 'a t
(** [build size produce] sums every [emit x w] that [produce emit] makes
    and drops the records that net to zero; [size] hints at the support
    size (it pre-sizes the arrays, which are copied down when the support
    comes out under half of it).  Every constructor goes through it. *)

val to_grid_list : 'a t -> ('a * int) list
(** In the order of {!to_list}: for [build], the order records were first
    emitted in (a record that netted to zero mid-way and came back keeps
    its first place); for {!filter} and {!map_grid}, the input's order
    with records dropped; for {!merge_grid}, the first input's records,
    then the second's that the first lacks. *)

val iter_grid : ('a -> int -> unit) -> 'a t -> unit
val map_grid : ('a -> int -> int) -> 'a t -> 'a t
val merge_grid : (int -> int -> int) -> 'a t -> 'a t -> 'a t

val keys : 'a t -> 'a Intern.t
(** The index whose ids [0 .. support_size - 1] are the support, in
    {!to_grid_list}'s order.  It is shared, not copied, and may hold more
    ids: a dataset never adds to it, but one that keeps every record of
    another shares its index, and the incremental engine adopts the index
    of a dataset it builds state from and appends to it later.  Ids past
    the support are not part of the dataset. *)

val of_index : 'a Intern.t -> int array -> 'a t
(** [of_index keys ws] is the records of [keys] whose weight [ws.(id)] is
    nonzero, in id order ([ws] covers every id).  It shares [keys] when
    every weight is nonzero, so [keys] must then only be added to. *)
