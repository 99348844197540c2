(** Privacy budgets.

    Every protected dataset owns a budget: the total ε it is willing to
    spend across all differentially-private aggregations (sequential
    composition, paper Section 2.1).  Aggregations charge the budget before
    releasing anything; once the budget is exhausted, further measurements
    raise {!Exhausted} and release nothing. *)

type t

type exhausted = { name : string; requested : float; remaining : float }
(** The denial report of a failed charge: which budget refused, what was
    asked, what it had left. *)

exception Exhausted of { name : string; requested : float; remaining : float }
(** Raised by {!charge} when a request would overdraw the budget. *)

val create : name:string -> float -> t
(** [create ~name total] makes a budget of [total] ε for the dataset called
    [name].  [total] must be finite and non-negative. *)

val name : t -> string
val total : t -> float
val spent : t -> float
val remaining : t -> float

val charge : ?label:string -> t -> float -> unit
(** [charge ?label b eps] debits [eps], recording [label] in the audit
    log.  Raises {!Exhausted} — {e before} spending anything — if
    [eps > remaining b] (with a tiny tolerance for rounding).  [eps] must
    be finite and non-negative: NaN and infinities raise
    [Invalid_argument] instead of silently poisoning the accounting. *)

val try_charge : ?label:string -> t -> float -> (unit, exhausted) result
(** Non-raising {!charge}: [Error denial] where [charge] would raise
    {!Exhausted}, with every budget untouched.  Invalid epsilon (NaN,
    infinite, negative) is still a programming error and raises
    [Invalid_argument]. *)

val log : t -> (string * float) list
(** Audit log of successful charges, oldest first. *)

val save : t -> Buffer.t -> unit
(** Serializes a {e root} budget — name, total, spent, and the full audit
    log — for checkpointing.  Only released accounting metadata is written;
    raises [Invalid_argument] on a parallel-composition child (children are
    transient per-partition views). *)

val load : Wpinq_persist.Persist.Codec.reader -> t
(** Rebuilds a root budget written by {!save}.  Raises
    [Wpinq_persist.Persist.Codec.Decode_error] on malformed input. *)

(** {1 Parallel composition}

    Queries over {e disjoint} parts of a dataset compose in parallel
    (McSherry, PINQ): the dataset's exposure is the {e maximum} spent on
    any one part, not the sum.  A {!group} represents one partitioning of
    a parent budget; each part charges its own {!parallel_child}, and the
    parent is debited only when some child's cumulative spend exceeds the
    group's previous maximum. *)

type group

val parallel_group : t -> group
(** A fresh parallel account over [parent] (one per Partition operation). *)

val parallel_child : ?allocation:float -> group -> name:string -> t
(** A child budget for one part.  [charge child eps] forwards
    [max 0 (child_spent + eps − group_max)] to the parent — checking the
    parent {e before} recording anything, so exhaustion is atomic.  A
    child's [remaining] reflects what it could still spend given the
    parent's state and the group maximum.

    [allocation], if given, additionally caps the child's cumulative
    spend: a charge beyond the cap is denied ({!Exhausted} names the
    child) even when the group still has headroom.  The allocation is
    validated at creation exactly as {!try_charge} validates ε — NaN,
    infinite, or negative values raise [Invalid_argument] instead of
    constructing an account whose every later charge decision is
    silently poisoned. *)
