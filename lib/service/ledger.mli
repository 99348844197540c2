(** A concurrency-safe, crash-recoverable multi-tenant ε-budget ledger:
    the one durable ε authority.  The continual-observation supervisor
    books every epoch here ([Wpinq_stream.Supervisor]: a root account
    per stream, one delegated child per epoch).

    Each tenant owns an account with the escrow invariant

    {v available = allocated − spent − committed   (and available ≥ 0) v}

    [spent] is ε irrevocably consumed by delivered answers; [committed]
    is ε held in escrow — by queries admitted but not yet answered, and
    by live delegations to child tenants.  Every admitted query
    {!escrow}s its cost {e before} evaluation and later either
    {!commit}s it (the noisy answer was delivered: escrow becomes spent)
    or {!release}s it (the query failed, was refused, or timed out: the
    escrow returns to available).  Because the escrow is taken atomically
    under one lock, no interleaving of concurrent analysts can drive a
    shared account past its allocation — the overspend check happens
    once, at admission, against funds that are then reserved.

    Delegation ({!delegate}) carves a child account out of a parent: the
    child's whole allocation is escrowed on the parent for the child's
    lifetime (the quoracle model: a delegation is a long-lived escrow).
    {!retire} settles a child back into its parent — the child's spent ε
    rolls up, the unspent remainder returns to the parent's available.

    Durability: when opened on a directory, every mutation is
    write-ahead journaled through {!Wal} {e before} it is applied, so an
    acknowledged charge survives any crash.  Recovery replays the
    journal over the newest valid snapshot and resolves in-flight
    escrows {e conservatively} — an escrow with no commit or release
    record is treated as {b spent} (charge-on-doubt): we cannot prove
    the noisy answer did not escape, and privacy errs on the safe side.
    Floats are replayed in append order, so a cleanly-settled ledger
    recovers bit-identically to its live state. *)

type t

type refusal =
  | Insufficient_budget of { tenant : string; requested : float; available : float }
  | Invalid_epsilon of { tenant : string; value : float }
      (** NaN, infinite, or negative ε in a request — refused before it
          can poison the accounting *)
  | Unknown_tenant of string
  | Duplicate_tenant of string
  | Retired_tenant of string
  | Unknown_escrow of int  (** already settled, or never issued *)
  | Open_escrows of { tenant : string; count : int }
      (** retire refused: settle (commit/release) the tenant's in-flight
          queries first *)
  | Has_children of { tenant : string; children : string list }
      (** retire refused: live delegations must be retired first *)

val refusal_to_string : refusal -> string

type recovery = {
  replayed : int;  (** journal records applied over the snapshot *)
  charged_on_doubt : int;  (** in-flight escrows resolved as spent *)
  doubt_epsilon : float;  (** total ε those escrows charged *)
  torn_bytes : int;  (** journal bytes discarded as a torn tail *)
  snapshots_rejected : int;  (** corrupt snapshot generations quarantined *)
}

val create_in_memory : unit -> t
(** A volatile ledger (tests, reference runs): same semantics, no
    journal, nothing survives the process. *)

val open_dir : ?keep:int -> ?fsync:bool -> ?compact_every:int -> string -> t * recovery
(** [open_dir dir] opens (or creates) a durable ledger rooted at [dir]:
    loads the newest valid snapshot, replays the journal, applies
    charge-on-doubt to unresolved escrows, compacts, and returns the
    live ledger with a report of what recovery did.  [compact_every]
    (default 1024) bounds the journal: a snapshot-and-reset runs after
    that many appends.  [keep]/[fsync] as in {!Wal.open_dir}. *)

val close : t -> unit
val compact : t -> unit
(** Snapshot now and reset the journal (no-op on an in-memory ledger). *)

(** {1 Accounts} *)

val create_root : t -> tenant:string -> allocated:float -> (unit, refusal) result
(** A top-level account (one per protected dataset, typically). *)

val delegate : t -> parent:string -> tenant:string -> allocated:float -> (unit, refusal) result
(** A child account funded by escrowing [allocated] on [parent]. *)

val retire : t -> tenant:string -> (unit, refusal) result
(** Settle a tenant: its spent ε rolls up to the parent (if any) and the
    unspent remainder of the delegation returns to the parent's
    available.  Refused while the tenant has open escrows or live
    children.  A retired tenant refuses all further operations. *)

(** {1 The escrow lifecycle} *)

val escrow : t -> tenant:string -> cost:float -> label:string -> (int, refusal) result
(** Reserve [cost] ε against [tenant]; returns the escrow id.  Refused
    (atomically, nothing reserved) if [cost] exceeds the tenant's
    available ε. *)

val commit : t -> int -> (unit, refusal) result
(** The answer was delivered: escrow becomes spent. *)

val release : t -> int -> (unit, refusal) result
(** No answer escaped: escrow returns to available. *)

(** {1 Inspection} *)

type view = {
  v_parent : string option;
  v_allocated : float;
  v_spent : float;
  v_committed : float;
  v_retired : bool;
}

val tenants : t -> string list
(** Sorted. *)

val view : t -> tenant:string -> view option
val allocated : t -> tenant:string -> float option
val spent : t -> tenant:string -> float option
val committed : t -> tenant:string -> float option
val available : t -> tenant:string -> float option
val open_escrows : t -> int

val dump : t -> (string * view) list
(** Canonical (name-sorted) account listing — the equality witness
    recovery tests compare bit-for-bit. *)

val overspend : t -> (string * float) list
(** Tenants whose [spent + committed] exceeds [allocated] (beyond float
    slack), with the excess.  Always empty unless the invariant has been
    broken — the property the fault matrix asserts after every
    kill/corrupt/recover cycle. *)

val slack : float
(** The rounding tolerance used by admission checks and {!overspend}. *)
