(** The continual-observation supervisor: crash-safe streaming ingestion,
    epoch scheduling with defense in depth, and warm-started re-synthesis.

    The supervisor turns the one-shot synthesis workflow into a supervised
    pipeline over an evolving protected graph.  Clients {!submit}
    timestamped edge events; each is fsynced into the {!Ingest} journal
    before its sequence number is returned, so an acknowledged event
    survives any crash.  On a {!tick} the supervisor runs one {e
    re-release epoch}: it books the epoch's allowance in the durable
    {!Wpinq_service.Ledger} (a typed {!outcome.Refused} once all [epochs]
    are granted), feeds the pending events into the live secret, re-measures
    the queries under the allowance, and re-fits — {e warm-starting} from
    the previous epoch's synthetic graph adapted to the new degree
    sequence ({!warm_seed}) rather than a cold configuration-model seed.

    The ledger is the stream's one ε authority.  Under [DIR/budget] it
    holds a root account ["stream"] of [per_epoch × epochs] and, per
    granted epoch, a delegated child ["epoch-<k>"] whose allocation is the
    epoch's allowance.  The epoch's exact measurement cost is escrowed on
    the child before any noise is drawn; the escrow is committed when the
    noise is released (a completed epoch, or a merged one with a durable
    fit snapshot) and released otherwise, and the child is retired when
    the epoch settles.  A kill leaves the escrow to the ledger's
    charge-on-doubt, which counts it as spent.

    Defense in depth, in layers:

    - {e Durability.}  The event and epoch journals and the budget
      ledger's write-ahead log are checksummed, fsynced,
      torn-tail-trimmed instances of [Wpinq_persist.Journal]; the fit checkpoints every
      [checkpoint_every] steps into a generational store, {e starting
      with a step-0 snapshot written before the first step} — measurement
      noise is spent the moment it is drawn, so the epoch is resumable
      from durable state from that moment on.  Kill the process anywhere
      and {!open_dir} replays back to the exact state: the resumed run's
      outcomes, synthetic graph, and books are bit-identical to an
      uninterrupted one's.
    - {e Bounded retry.}  Transient failures (I/O errors, injected chaos)
      are retried up to [retries] times with exponential backoff; each
      attempt deterministically re-derives the epoch (the epoch PRNG is a
      pure function of [(seed, epoch)], so a retry redraws {e identical}
      noise — no extra privacy loss) or resumes its durable checkpoint.
    - {e Graceful degradation.}  An epoch that exhausts its retries or
      blows its [deadline] is {e skipped and merged}: its events stay
      pending and roll into the next epoch, its unspent allowance is
      rolled forward or forfeited per [policy], and whatever {e was}
      spent (noise recorded in a durable snapshot has been released,
      completed or not; an escrow charged on doubt counts as released)
      is accounted honestly.  Every disposition is typed ({!outcome}) and
      journalled; {!overspend} is provably [0.0].

    Shutdown integration: one SIGINT ({!Wpinq_infer.Shutdown.requested})
    drains — the in-flight epoch finishes, {!run} stops before the next.
    A second ({!Wpinq_infer.Shutdown.forced}) interrupts the walk itself;
    the fit writes a final snapshot and {!tick} returns [None] with the
    epoch left in-flight, to be resumed by a later tick or process. *)

type config = {
  queries : Wpinq_infer.Workflow.query list;  (** non-empty *)
  steps : int;  (** MCMC steps per epoch *)
  pow : float;
  jobs : int;
  trace_every : int option;
  audit_every : int;
  checkpoint_every : int;  (** fit snapshot cadence, in steps *)
  keep : int;  (** snapshot generations retained, all stores *)
  fsync : bool;
  retries : int;  (** transient-failure retries per epoch *)
  backoff : float;  (** base seconds; doubles per retry ([0.] = none) *)
  deadline : float;  (** per-epoch wall-clock seconds ([0.] = none) *)
  per_epoch : float;  (** ε granted per epoch *)
  epochs : int;  (** total epochs the ledger grants *)
  policy : Policy.degrade;
  seed : int;  (** master PRNG seed; epoch rng = [split_nth (create seed) epoch] *)
}

val config :
  ?queries:Wpinq_infer.Workflow.query list ->
  ?steps:int ->
  ?pow:float ->
  ?jobs:int ->
  ?trace_every:int ->
  ?audit_every:int ->
  ?checkpoint_every:int ->
  ?keep:int ->
  ?fsync:bool ->
  ?retries:int ->
  ?backoff:float ->
  ?deadline:float ->
  ?policy:Policy.degrade ->
  ?seed:int ->
  per_epoch:float ->
  epochs:int ->
  unit ->
  config
(** Defaults: [queries = [Tbi]], [steps = 2000], [pow = 100.], [jobs = 1],
    [checkpoint_every = 500], [keep = 3], [fsync = true], [retries = 2],
    [backoff = 0.], [deadline = 0.], [policy = Roll_forward], [seed = 1].
    Raises [Invalid_argument] on an empty [queries] list, a negative or
    non-finite [per_epoch], or a negative [epochs]. *)

type books = {
  granted : float;  (** fresh ε issued: [per_epoch × granted epochs] *)
  spent : float;  (** settled spend across all epochs *)
  carried : float;  (** unspent ε left to roll into the next grant *)
  forfeited : float;  (** unspent ε burned by policy *)
  outstanding : float;  (** the in-flight epoch's allowance *)
}
(** The stream's ε books, a view over the ledger:
    [spent + carried + forfeited + outstanding = granted] (up to
    rounding), the unspent part labelled by the policy. *)

type completed = {
  epoch : int;
  allowance : float;  (** ε granted (per-epoch + carried) *)
  spent : float;  (** ε actually debited by this epoch's measurements *)
  steps : int;  (** walk length *)
  initial_energy : float;  (** posterior energy at the warm start *)
  final_energy : float;
  events : int;  (** stream events consumed (committed) by this epoch *)
  stream_seq : int;  (** ingest position the release covers *)
  retries : int;  (** transient-failure retries this epoch survived *)
}

type merged = {
  m_epoch : int;
  m_allowance : float;
  m_spent : float;
      (** ε released before the failure: a durable fit snapshot's, or the
          escrow recovery charged on doubt *)
  rolled : float;  (** unspent ε carried to the next epoch *)
  forfeited : float;  (** unspent ε destroyed ([Forfeit] policy) *)
  reason : string;
  deferred : int;  (** events left pending for the next epoch *)
  m_retries : int;
}

type refused = { r_epoch : int; r_deferred : int }

(** The typed disposition of one epoch — every branch is journalled and
    reproduced bit-identically across kill/resume. *)
type outcome =
  | Completed of completed
  | Merged of merged
  | Refused of refused
      (** every epoch is granted: typed refusal, nothing spent *)

val outcome_to_string : outcome -> string

type recovery = {
  torn_bytes : int;  (** journal bytes trimmed across both journals *)
  replayed_events : int;  (** uncommitted events recovered *)
  replayed_records : int;  (** epoch-journal records replayed past the snapshot *)
  resumed_epoch : int option;  (** an epoch was in flight at the crash *)
  rejected : Wpinq_persist.Persist.Store.rejected list;
}

type t

val open_dir :
  ?chaos:(epoch:int -> attempt:int -> string option) ->
  config:config ->
  string ->
  t * recovery
(** Opens (creating or recovering) a supervisor rooted at [dir].  Recovery
    replays both journals and lands on the exact pre-crash state; an
    in-flight epoch is left armed for the next {!tick} to resume.  [chaos]
    is the deterministic transient-failure hook for tests and benches:
    consulted at the start of each epoch attempt, a [Some reason] makes
    the attempt fail as a retryable {!Policy.Chaos}.  Raises
    [Invalid_argument] when [dir] holds an epoch journal but no budget
    ledger, or a ledger whose stream allocation differs from
    [per_epoch × epochs]. *)

val submit : t -> Event.t -> int
(** Durably appends one event and returns its sequence number — an
    acknowledgment: the event survives any subsequent crash and will be
    consumed by a future epoch.  Raises
    {!Wpinq_persist.Journal.Io_error} if durability cannot be promised. *)

val pending : t -> int
(** Acknowledged events not yet committed by a completed epoch. *)

val tick : t -> outcome option
(** Runs (or resumes) one epoch and returns its settled outcome.  [None]
    means the epoch was interrupted by shutdown and stays in flight —
    durable, resumable by a later tick or a fresh process. *)

val run : ?cadence:float -> t -> epochs:int -> outcome list
(** Up to [epochs] ticks, sleeping [cadence] seconds between them
    (default [0.]), stopping early on {!Wpinq_infer.Shutdown.requested}
    or an interrupted epoch.  Returns the outcomes, oldest first. *)

val outcomes : t -> outcome list
(** Every settled outcome since the stream began, oldest first. *)

val synthetic : t -> Wpinq_graph.Graph.t option
(** The most recently released synthetic graph, if any epoch completed. *)

val books : t -> books
(** {!books_of} the supervisor's ledger. *)

val overspend : t -> float
(** ε booked beyond any ledger account's allocation, summed over
    {!Wpinq_service.Ledger.overspend}.  Always [0.0] — the fault matrix
    asserts this across every crash/retry/degrade path. *)

val next_allowance :
  Wpinq_service.Ledger.t -> per_epoch:float -> epochs:int -> policy:Policy.degrade -> float option
(** The allowance the next epoch is granted from a ledger's epoch
    accounts: [per_epoch], plus under [Roll_forward] the newest child's
    unspent ε; [None] (the typed refusal) once [epochs] children exist. *)

val books_of : Wpinq_service.Ledger.t -> per_epoch:float -> policy:Policy.degrade -> books
(** The books of a ledger's ["stream"] root and its epoch children. *)

val consumed : t -> int
val head : t -> int
val protected_edges : t -> (int * int) list
(** The current secret edge set (committed events plus those fed to the
    live secret by in-flight or merged epochs), sorted. *)

val warm_seed :
  rng:Wpinq_prng.Prng.t ->
  degrees:int array ->
  previous:Wpinq_graph.Graph.t ->
  Wpinq_graph.Graph.t
(** The warm-start seed: keeps every edge of [previous] that fits within
    the new degree sequence's per-vertex capacities, then wires the
    residual degree stubs uniformly at random (self-loops and duplicates
    rejected, leftover stubs dropped).  Exposed for the warm-vs-cold
    bench. *)

val dir : t -> string
val close : t -> unit
