(** Differentially-private measurements: the output of [NoisyCount]
    (paper, Section 2.2).

    A measurement is a dictionary from records to noisy counts.  Records
    that carried nonzero weight at measurement time are materialized
    eagerly; any other record's value is fresh Laplace noise, drawn on first
    request and memoized so later requests (and the MCMC scorer) see a
    consistent function.  The protected data is captured only long enough to
    draw the noisy values — nothing unnoised escapes this module. *)

type 'a t

val create :
  rng:Wpinq_prng.Prng.t -> epsilon:float -> true_data:'a Wpinq_weighted.Wdata.t -> 'a t
(** [create ~rng ~epsilon ~true_data] draws [true_data x + Laplace(1/epsilon)]
    for every supported record.  The caller ({!Batch.noisy_count}) is
    responsible for budget accounting {e before} calling this. *)

val epsilon : 'a t -> float
(** The per-record noise parameter (counts carry [Laplace(1/epsilon)]
    noise).  This is the ε the posterior weighs this measurement by. *)

val copy : 'a t -> 'a t
(** An independent deep copy: same released values (the measurement-time
    {!support} included), same private noise cursor.  A replica fit built
    over copies draws bit-identical lazy observations to the original as
    long as both replay the same record sequence — the invariant the
    parallel lookahead pool maintains. *)

type mark
(** A snapshot of the private noise stream's cursor. *)

val mark : 'a t -> mark

val undo_draw : 'a t -> 'a -> mark -> unit
(** [undo_draw m x mk] rolls back a lazy draw made after [mk] was taken:
    drops the cached observation for [x] and rewinds the noise cursor, so a
    record re-encountered after a speculative abort re-draws identical
    noise.  This keeps the measurement a pure function of the committed walk
    prefix.  A no-op when nothing was drawn since [mk] (the {!value} call
    being undone found [x] already memoized): a released observation is
    never forgotten. *)

val value : 'a t -> 'a -> float
(** [value m x] is the released noisy count for [x]; memoized fresh noise if
    [x] had zero weight and has not been asked before. *)

val support : 'a t -> ('a * float) list
(** The records materialized at measurement time, with their noisy counts,
    in canonical (sorted-record) order.  Fixed at {!create}: lazy draws
    never join it, and {!copy}, {!save} and {!load} preserve it.  This is
    the baseline every scorer over the measurement seeds
    ({!Flow.Target.create}), so two scorers built at different points of a
    walk agree on it. *)

val observed : 'a t -> ('a * float) list
(** All records materialized so far (the {!support}, then the lazily-drawn
    records in sorted-record order), with their noisy counts. *)

val observed_size : 'a t -> int

val save : (Buffer.t -> 'a -> unit) -> 'a t -> Buffer.t -> unit
(** [save write_key m buf] serializes the measurement for checkpointing:
    epsilon, the private noise stream's exact state, the {!support} in
    order, and every lazily-drawn [(record, noisy count)] pair in
    sorted-record order — so the bytes are a function of the values drawn,
    not of how the measurement got there.  Only
    {e released} values are written — the protected data was consumed at
    creation and cannot be recovered from a checkpoint. *)

val load : (Wpinq_persist.Persist.Codec.reader -> 'a) -> Wpinq_persist.Persist.Codec.reader -> 'a t
(** Rebuilds a measurement written by {!save}.  The restored measurement
    returns bit-identical values for every materialized record and draws
    the same future noise sequence for new ones.  Raises
    [Wpinq_persist.Persist.Codec.Decode_error] on malformed input. *)
