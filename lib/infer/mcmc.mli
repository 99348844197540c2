(** Metropolis–Hastings over an abstract mutable state (paper, Section 4.2).

    The caller supplies the ingredients of the paper's pseudo-code — a
    proposal generator (the random walk), speculative evaluation of a move
    and the energy it reaches, and a commit — as one {!lookahead}
    evaluator, which {!run_lookahead} drives.  The chain targets the
    distribution [∝ exp(−pow · energy)]; with [energy = Σ_i ε_i ‖Q_i(A) − m_i‖₁] this is
    exactly the posterior over datasets given the noisy wPINQ measurements
    (Section 4.1), sharpened by [pow] toward a greedy search for the
    best-fitting dataset. *)

type stats = {
  steps : int;  (** proposal attempts made by this call ([step − start]) *)
  accepted : int;  (** proposals accepted (state changed) *)
  invalid : int;  (** proposals the walk itself rejected (returned [None]) *)
  refreshed_on_nonfinite : int;
      (** defensive refreshes forced by a non-finite energy reading *)
  audits : int;  (** self-audit passes run ([audit_every] cadence) *)
  audit_divergences : int;
      (** total divergent cells the audits detected (each triggered the
          recovery path before the walk continued) *)
  interrupted : bool;
      (** the walk stopped early ([should_stop]) rather than reaching
          [steps]; the state reflects exactly [start + steps] completed
          iterations *)
  initial_energy : float;
  final_energy : float;
}

(** {1 Parallel speculative lookahead} *)

type 'swap verdict =
  | Invalid  (** the proposal generator returned [None] *)
  | Rejected  (** finite energy, Metropolis test failed *)
  | Nonfinite  (** proposed energy was not finite; triggers a refresh *)
  | Accepted of { swap : 'swap; proposed : float }
      (** passed the Metropolis test; [proposed] is the energy read off the
          speculating engine *)
(** The outcome of evaluating one lookahead position against the shared
    base state. *)

type 'swap lookahead = {
  la_jobs : int;  (** worker count; the default lookahead width *)
  la_energy : unit -> float;  (** current committed energy *)
  la_eval : pow:float -> energy:float -> Wpinq_prng.Prng.t array -> 'swap verdict array;
      (** evaluate the per-step streams speculatively against the base
          state.  Every position up to the first [Accepted] or [Nonfinite]
          verdict must be evaluated; later ones are never read.  State
          stays at the base, except that an evaluator may hold the first
          winner open for [la_commit] *)
  la_commit : 'swap -> proposed:float -> unit;
      (** commit an accepted swap to the canonical fit: in place when the
          canonical fit holds it open, as a committed delta otherwise (and,
          with replicas, queue it for them) *)
  la_refresh : unit -> float;
      (** recompute maintained state from scratch everywhere (the
          nonfinite guard); returns the refreshed energy *)
  la_resync : unit -> float;
      (** rebuild every replica from the canonical fit (after an audit
          found divergences; a no-op without replicas); returns the pool
          energy *)
}
(** The evaluation-pool interface {!run_lookahead} drives — implemented by
    [Fit.Pool]. *)

type width =
  | Fixed of int
      (** every batch dispatches exactly this many streams (more than
          [la_jobs] gives each evaluator a multi-stream slice) *)
  | Schedule of (int -> int)
      (** arbitrary width per batch index (clamped to at least 1) — the
          property-test hook for schedule-invariance *)
(** The batch-width policy.  The realized chain is {e invariant} to the
    policy: each step's streams are dealt by absolute step index and the
    master cursor advances only by consumed steps, so policies only move
    wall-clock, never the walk. *)

type counters = {
  mutable dispatch_us : float;
      (** publishing slices to the replicas' mailboxes (scheduler side; 0
          when no replica is posted, as always at [jobs = 1]) *)
  mutable eval_us : float;
      (** the canonical fit evaluating its own slice (propose, speculate,
          abort) and then waiting for the replicas' verdicts *)
  mutable resolve_us : float;
      (** verdict prefix scan, rng advance, cadence hooks *)
  mutable commit_us : float;
      (** committing winning swaps to the canonical fit: the in-place
          commit of a winner it holds open, or the O(delta) feed of a
          replica's winner (replicas absorb theirs into the next
          dispatch) *)
  mutable batches : int;
  mutable k_min : int;  (** narrowest realized batch ([max_int] if none) *)
  mutable k_max : int;  (** widest realized batch *)
  mutable k_sum : int;  (** total dispatched width, for the mean *)
}
(** Per-phase wall-clock attribution and the realized width trajectory of
    one lookahead run.  Passed to both {!run_lookahead} and the evaluation
    pool, each of which accumulates the phases it owns. *)

val counters : unit -> counters
(** A fresh, zeroed counter record. *)

val run_lookahead :
  rng:Wpinq_prng.Prng.t ->
  lookahead:'swap lookahead ->
  steps:int ->
  ?start:int ->
  ?pow:float ->
  ?audit:(unit -> int) ->
  ?audit_every:int ->
  ?should_stop:(unit -> bool) ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(step:int -> stats:stats -> unit) ->
  ?on_batch:(dispatched:int -> consumed:int -> unit) ->
  ?on_step:(step:int -> energy:float -> unit) ->
  ?width:width ->
  ?counters:counters ->
  unit ->
  stats
(** [run_lookahead ~rng ~lookahead ~steps ... ()] performs iterations
    [start + 1 .. steps] ([start] defaults to 0, so normally [steps]
    iterations; a resumed chain passes the already-completed count as
    [start] and the same total as [steps]).  Raises [Invalid_argument] if
    [start < 0 || start > steps].

    It dispatches a batch of per-step split streams at once, all evaluated
    against the same base state, then resolves in serial proposal order —
    the consumed prefix runs up to and including the first accept (or
    non-finite energy); later positions are discarded and re-evaluated
    against the new state in a later batch.  Each proposal is kept with
    probability [min 1 (exp (-pow *. (e_new -. e_old)))] (default
    [pow = 1.0]); an [Invalid] one counts as invalid and leaves the state
    untouched.

    Step [s]'s proposal (and acceptance uniform) are drawn from
    [Prng.split_nth rng (s - base)], a pure function of the step index, and
    the master cursor advances only by consumed steps
    ({!Wpinq_prng.Prng.advance}); the realized chain is therefore
    bit-identical for every [la_jobs] {e and} every [width] policy,
    including [Fixed 1] — same proposals, same energies, same acceptance
    decisions, same final edge arrays, same checkpoint bytes.

    If a proposal's energy is {e non-finite} (corruption or overflow), the
    move is discarded, [la_refresh] rebuilds the maintained state and
    returns the energy to continue from, and [refreshed_on_nonfinite] is
    incremented — NaN never reaches the accept/reject comparison.
    Maintained energies are exact, so there is no periodic refresh.

    [audit] (with [audit_every]; [0], the default, disables) is the
    self-audit hook: every [audit_every]-th iteration it cross-validates the
    incrementally-maintained state and returns the number of divergences
    found, leaving the state at batch truth either way (a fit's audit is a
    fresh rebuild).  A nonzero return makes the walk re-read its energy
    through [la_resync]; stats record both cadence and divergences.

    [should_stop] is polled {e between} batches; returning [true] exits
    with [interrupted = true] — the graceful-shutdown primitive (signal
    flag, wall-clock deadline).  The state left behind reflects a whole
    number of completed iterations and is safe to checkpoint.

    [on_step] is invoked after every iteration with the current energy.

    [on_checkpoint] (with [checkpoint_every]) fires after every
    [checkpoint_every]-th iteration (skipping the final one), {e after}
    [on_step], receiving the interim [stats].  The hook must leave the
    walk's state as it found it (a checkpoint only writes).

    [width] (default [Fixed la_jobs]) chooses how many streams each batch
    dispatches; widths beyond [la_jobs] are evaluated by giving each
    evaluator a multi-stream slice of the batch.  Batches are clamped to audit / checkpoint
    cadence boundaries, and the stop poll and fault-injection
    points ("mcmc.signal", "mcmc.step") fire once per batch, so
    interrupts, kills and snapshots only ever observe committed,
    batch-aligned state; "mcmc.audit" fires right before each audit.
    [on_batch] reports each batch's dispatched width and consumed prefix
    (lookahead efficiency = consumed / dispatched).  [counters]
    accumulates per-phase wall time and the width trajectory. *)
