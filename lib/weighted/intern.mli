(** The record index shared by {!Wdata} and the incremental engine: a
    monotone bijection between record values and dense ids [0 .. size-1],
    assigned in first-sight order, with each record's hash kept beside it.

    The index is open addressing with linear probing over tagged slots (a
    record's hash packed above its id), placed by a seeded hash no stdlib
    [Hashtbl] uses.  A lookup by a stored hash, a rehash and a digest hash
    no record.  Records are equal when [compare] returns [0], as in a
    stdlib [Hashtbl]: all nans are one record, and [-0.] is [0.].  The
    record kept is the first one seen.

    Append-only: the engine does not enrol an intern in its undo log, and
    {!Wdata} never adds to a finished one.  See DESIGN.md, "Record
    interning". *)

type 'a t

val create : ?size:int -> unit -> 'a t
(** [size] (default [0]) pre-sizes the arrays and the index for that many
    records. *)

val size : 'a t -> int

val gather : ('a t * (int -> bool)) list -> 'a t
(** The records of each [(t, keep)] whose ids [keep] selects, part after
    part, with their stored hashes, renumbered from [0]: it hashes no
    record, and builds its index at the first lookup.  The parts' records
    must be pairwise distinct across parts. *)

val intern : 'a t -> 'a -> int
(** Returns the id of [x], assigning the next dense id at first sight.
    Where [x] is placed in the index never depends on the order records
    arrive in.  Raises [Failure] beyond [2^31 - 1] distinct records
    (ids are packed into 31 bits). *)

val intern_hashed : 'a t -> 'a -> int -> int
(** [intern_hashed t x h] is [intern t x] for [h] the hash of [x] (as
    {!hash_of} gives it, from any intern), hashing nothing. *)

val reserve : 'a t -> unit
(** Gives the records and hashes room for {!Room.cap}[ (size t)] records:
    the records interned after a bulk build copy neither until they have
    doubled it.  The index keeps its own rule (a power of two under 3/4
    full, doubled when it fills). *)

val find : 'a t -> 'a -> int
(** The id of [x], or [-1] if it was never interned (never assigns). *)

val find_hashed : 'a t -> 'a -> int -> int
(** [find_hashed t x h] is [find t x] for [h] the hash of [x] (as
    {!hash_of} gives it, from any intern), hashing nothing. *)

val value : 'a t -> int -> 'a
(** Inverse of {!intern} for assigned ids. *)

val hash_of : 'a t -> int -> int
(** The hash an id's record was placed by, as stored: the seeded
    polymorphic hash, the same in every intern. *)

val capacity : 'a t -> int
(** Slot capacity of the index ([0] while it is not built). *)

val displacement : 'a t -> int
(** Σ over ids of the slots past their home slot: [displacement / size] is
    the mean extra probes per lookup (about 1 when healthy). *)

val term : int -> int -> int
(** [term h w] is one record's share [(2h + 1) × w] of a {!digest}. *)

val digest : 'a t -> (int -> int) -> int
(** [digest t weight] is [Σ term (hash_of t id) (weight id)] over every
    id, wrapping: an order-free digest of a table over [t]'s ids. *)
