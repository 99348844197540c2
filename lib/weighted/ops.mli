(** Batch (reference) semantics of wPINQ's stable transformations
    (paper, Sections 2.3–2.8).

    A transformation [T] is {e stable} when
    [‖T A − T A'‖ ≤ ‖A − A'‖] for all datasets [A, A'] (binary
    transformations bound the output change by the sum of the input
    changes).  Stability is what lets a single differentially-private
    aggregation of a pipeline's output protect the pipeline's input
    (Theorem 1): the operators below each rescale record weights just enough
    to absorb worst-case input changes, rather than forcing the aggregation
    to add worst-case noise.

    These implementations compute whole outputs from whole inputs.  They are
    the executable specification against which the incremental engine
    ({!module:Wpinq_dataflow}) is tested, they are used directly wherever
    a query is evaluated only once, and every engine build evaluates its
    operators with them and adopts the results as state.

    Weights are {!Grid} ints.  {!select_many}, {!join}, {!group_by} and
    {!shave} round each contribution to the grid once, with the engine's
    formulas ({!Grid.mul_div}, {!Grid.scale_share} and the helpers below),
    so the engine's sinks hold the same ints;
    the other operators only move ints.  Rounding adds at most one grid
    unit (2{^-40}) per differing contribution to a stability bound. *)

val select : ('a -> 'b) -> 'a Wdata.t -> 'b Wdata.t
(** [select f a] maps every record through [f], accumulating the weights of
    records that collide: [Select(A,f)(y) = Σ_{x : f x = y} A x]. *)

val where : ('a -> bool) -> 'a Wdata.t -> 'a Wdata.t
(** [where p a] keeps records satisfying [p] with their weights. *)

val select_many : ('a -> ('b * float) list) -> 'a Wdata.t -> 'b Wdata.t
(** [select_many f a] maps each record [x] to the weighted dataset [f x],
    rescaled to at most unit norm and then by [A x]:
    [Σ_x A x · f x / max 1 ‖f x‖].  The per-record rescaling — by the norm
    each record {e actually} produces, not a worst-case bound — is what
    makes the one-to-many mapping stable. *)

val select_many_list : ('a -> 'b list) -> 'a Wdata.t -> 'b Wdata.t
(** [select_many_list f] is {!select_many} with every produced record given
    weight [1.0] (the common LINQ-style usage). *)

val group_by : key:('a -> 'k) -> reduce:('a list -> 'r) -> 'a Wdata.t -> ('k * 'r) Wdata.t
(** [group_by ~key ~reduce a] groups records by [key] and applies [reduce]
    to each group.  Within the part [A_k], records [x₀, x₁, ...] are ordered
    by non-increasing weight and, for each prefix, the record
    [(k, reduce [x₀; ...; x_i])] is emitted with weight
    [(A_k x_i − A_k x_{i+1}) / 2] (zero beyond the last record).  When all
    input records share one weight [w] — the common case — only the full
    group survives, with weight [w / 2].  This halving is what makes the
    grouping stable (paper, Section 2.5 and Appendix A). *)

val union : 'a Wdata.t -> 'a Wdata.t -> 'a Wdata.t
(** Record-wise maximum of weights. *)

val intersect : 'a Wdata.t -> 'a Wdata.t -> 'a Wdata.t
(** Record-wise minimum of weights. *)

val concat : 'a Wdata.t -> 'a Wdata.t -> 'a Wdata.t
(** Record-wise sum of weights. *)

val except : 'a Wdata.t -> 'a Wdata.t -> 'a Wdata.t
(** Record-wise difference of weights ([A − B]; may produce negative
    weights). *)

val join :
  kl:('a -> 'k) ->
  kr:('b -> 'k) ->
  reduce:('a -> 'b -> 'c) ->
  'a Wdata.t ->
  'b Wdata.t ->
  'c Wdata.t
(** [join ~kl ~kr ~reduce a b] is wPINQ's stable equi-join (Section 2.7).
    With [A_k, B_k] the restrictions of the inputs to key [k], the output is
    [Σ_k (A_k × B_kᵀ) / (‖A_k‖ + ‖B_k‖)]: every matched pair
    [(x, y)] contributes [reduce x y] with weight
    [A x · B y / (‖A_k‖ + ‖B_k‖)].  Scaling the outer product down by the
    total key weight is what bounds the influence of any one input record,
    where the standard relational join is unboundedly sensitive. *)

val shave : ('a -> float Seq.t) -> 'a Wdata.t -> ('a * int) Wdata.t
(** [shave f a] decomposes each record [x] of weight [A x > 0] into indexed
    records [(x, 0), (x, 1), ...] with weights [w₀, w₁, ...] drawn from
    [f x], each clipped so the emitted weights sum to exactly [A x]
    (Section 2.8).  Emission stops at the first non-positive weight in
    [f x], so constant sequences are safe.  Records with non-positive
    weight produce nothing. *)

val distinct : ?bound:float -> 'a Wdata.t -> 'a Wdata.t
(** [distinct ?bound a] caps every weight into [[0, bound]] (default 1.0):
    the weighted analogue of PINQ's [Distinct].  Stable: capping is a
    1-Lipschitz map of each record's weight. *)

val shave_const : float -> 'a Wdata.t -> ('a * int) Wdata.t
(** [shave_const w] shaves every record into slabs of constant weight [w];
    [shave_const 1.0] is the paper's [Shave(1.0)]. *)

(** {1 Semantics helpers}

    Per-record emission rules, shared with the incremental engine; [q]
    rounds to the grid. *)

val produced_norm : ('b * float) list -> float
(** SelectMany's divisor [n = max 1 ‖f x‖] for the records [f x]. *)

val capper : float -> int -> int
(** Distinct's cap of a grid weight into [[0, q(bound)]]. *)

val member_order : int -> 'a -> int -> 'a -> int
(** [member_order wx x wy y] orders GroupBy members canonically: grid
    weight descending, then record ascending by [compare]. *)

val group_part :
  len:int ->
  weight:(int -> int) ->
  record:(int -> 'a) ->
  reduce:('a list -> 'r) ->
  ('r -> int -> unit) ->
  unit
(** [group_part ~len ~weight ~record ~reduce emit] emits the prefixes of one
    GroupBy part whose [len] members (member [j] is [record j], of grid
    weight [weight j]) are in {!member_order}.  Only the positive prefix
    counts: for each of its members [j], [emit (reduce [record 0; ...;
    record j]) q(d / 2)] where [d] is the drop in weight to member [j + 1]
    (to [0] past the positive prefix), in floats; an emission of at most
    [1e-12] (about one grid unit) is dropped.  It reads each weight in
    O(1) and builds one list per emission. *)

val shave_emissions : float Seq.t -> float -> (int * float) list
(** [shave_emissions seq w] lists the [(index, weight)] slabs Shave emits
    for a single record of weight [w], stopping once at most [1e-12] is
    left. *)

(** {1 Keyed parts}

    The grouping {!join} and {!group_by} evaluate over, exposed so that the
    incremental engine can build its keyed state from the same pass. *)

type ('k, 'a) parts = {
  keys : 'k Intern.t;  (** key [k] is [Intern.value keys k], in first-sight order *)
  start : int array;  (** part [k] is entries [start.(k)] to [start.(k + 1) - 1] *)
  src : int array;  (** entry -> its record's position in the dataset *)
  kid : int array;  (** position in the dataset -> key id, [-1] when not kept *)
  xs : 'a array;  (** entry -> record *)
  ws : int array;  (** entry -> grid weight *)
}

val index : key:('a -> 'k) -> keep:(int -> bool) -> 'a Wdata.t -> ('k, 'a) parts
(** [index ~key ~keep d] groups the records of [d] whose grid weight
    [keep] accepts by [key] (a counting sort over key ids; one hash per
    kept record, of its key), each part in [d]'s order. *)

val part_norm : ('k, 'a) parts -> int -> int
(** [part_norm p k] is [Σ |w|] over part [k], on the grid. *)

val iter_pairs : ('k, 'a) parts -> ('k, 'b) parts -> (int -> int -> int -> unit) -> unit
(** [iter_pairs pa pb f] calls [f i j d] for every entry [i] of [pa] and
    [j] of [pb] under one key whose normalizer [d = ‖A_k‖ + ‖B_k‖] is
    positive: {!join}'s pairs, contributing [Grid.mul_div wi wj d]. *)

val count_pairs : ('k, 'a) parts -> ('k, 'b) parts -> int
(** The number of entry pairs under keys both hold (an upper bound on
    {!iter_pairs}' calls). *)
