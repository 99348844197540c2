(** Degradation policy for the continual-observation supervisor.

    Two questions have typed answers here: what happens to a settled
    epoch's unspent budget, and what counts as a transient failure worth
    a bounded retry versus a reason to degrade the epoch immediately. *)

type degrade = Roll_forward | Forfeit
(** What happens to the unspent part of a settled epoch's allowance:
    [Roll_forward] adds it to the next epoch's allowance, [Forfeit] burns
    it.  Forfeit gives the tighter per-epoch exposure bound ([per_epoch]
    per release, always); roll-forward preserves total utility across
    degraded epochs at the cost of a lumpier release. *)

val degrade_to_string : degrade -> string
val degrade_of_string : string -> degrade option
(** ["roll-forward"]/["roll"] and ["forfeit"] (CLI spellings). *)

(** Why an epoch attempt failed. *)
type failure =
  | Deadline  (** the fit ran past the per-epoch wall-clock deadline *)
  | Io of { op : string; path : string; cause : string }
      (** a journal/checkpoint I/O failure
          ({!Wpinq_persist.Journal.Io_error}) *)
  | Chaos of string  (** injected transient failure (tests, bench) *)

val transient : failure -> bool
(** Whether a bounded retry-with-backoff is worth attempting: I/O errors
    and injected chaos are transient (the next attempt resumes from the
    epoch's durable checkpoint, or re-derives the epoch deterministically);
    a blown deadline is not — the epoch is already late, so it degrades
    immediately rather than getting later. *)

val describe : failure -> string
