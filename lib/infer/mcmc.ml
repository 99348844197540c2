module Prng = Wpinq_prng.Prng
module Fault = Wpinq_persist.Persist.Fault

type stats = {
  steps : int;
  accepted : int;
  invalid : int;
  refreshed_on_nonfinite : int;
  audits : int;
  audit_divergences : int;
  interrupted : bool;
  initial_energy : float;
  final_energy : float;
}

(* ---- Parallel speculative lookahead ---------------------------------- *)

(* The outcome of evaluating one lookahead position against the shared
   base state: the proposal was structurally invalid, rejected by the
   Metropolis test, produced a non-finite energy, or was accepted (with
   the proposed energy read off the speculating engine). *)
type 'swap verdict =
  | Invalid
  | Rejected
  | Nonfinite
  | Accepted of { swap : 'swap; proposed : float }

(* The evaluation-pool interface the lookahead scheduler drives.  [eval]
   evaluates the batch's streams speculatively against the base state and
   reports per-position verdicts; it must evaluate every position up to
   the first accept or non-finite reading, and may skip the rest (they
   are never read).  Losers leave no trace; the first winner may be held
   open.  [commit] commits an accepted swap to the canonical fit (and
   queues it for any replicas).  [refresh] recomputes maintained state
   from scratch everywhere and returns the pool's energy (the nonfinite
   guard).  [resync] rebuilds any replicas from the canonical fit (after
   an audit found divergences) and returns the pool's energy. *)
type 'swap lookahead = {
  la_jobs : int;
  la_energy : unit -> float;
  la_eval : pow:float -> energy:float -> Prng.t array -> 'swap verdict array;
  la_commit : 'swap -> proposed:float -> unit;
  la_refresh : unit -> float;
  la_resync : unit -> float;
}

(* How wide each lookahead batch is.  The realized chain is invariant to
   the policy (each step's streams are dealt by absolute step index and
   the master cursor advances only by consumed steps), so the policy only
   moves wall-clock time. *)
type width = Fixed of int | Schedule of (int -> int)

(* Per-phase accounting for one lookahead run, accumulated by both the
   scheduler (resolve/commit, realized width trajectory) and the evaluation
   pool (dispatch/eval — see [Fit.Pool]).  All wall-clock, in
   microseconds. *)
type counters = {
  mutable dispatch_us : float;
  mutable eval_us : float;
  mutable resolve_us : float;
  mutable commit_us : float;
  mutable batches : int;
  mutable k_min : int;
  mutable k_max : int;
  mutable k_sum : int;
}

let counters () =
  {
    dispatch_us = 0.0;
    eval_us = 0.0;
    resolve_us = 0.0;
    commit_us = 0.0;
    batches = 0;
    k_min = max_int;
    k_max = 0;
    k_sum = 0;
  }

(* The lookahead walk: dispatch a batch of per-step split streams at once,
   all evaluated against the same base state, then resolve in serial
   proposal order — the consumed prefix runs up to and including the first
   accept (or non-finite energy), and later positions are discarded and
   re-evaluated in a later batch against the new state.  Because step s's
   proposal stream is [split_nth rng] at offset s minus steps-taken (a
   pure function of the step index), and the master cursor advances only
   by consumed steps, the realized chain is bit-identical for every jobs
   count AND every width policy: same proposals, same energies, same
   acceptance decisions, same final edge arrays.

   The batch width is chosen by [width]: [Fixed k] dispatches k streams
   per batch; [Schedule] is the test hook — any width sequence
   whatsoever.  All widths are clamped to cadence boundaries (audit /
   checkpoint), and the stop poll and fault-injection points fire once
   per batch, so interrupts, kills and snapshots only ever observe
   committed, batch-aligned state. *)
let run_lookahead ~rng ~lookahead:la ~steps ?(start = 0) ?(pow = 1.0) ?audit ?(audit_every = 0)
    ?should_stop ?checkpoint_every ?on_checkpoint ?on_batch ?on_step ?width ?counters:ctrs () =
  if start < 0 || start > steps then
    invalid_arg "Mcmc.run_lookahead: start must be within [0, steps]";
  if la.la_jobs < 1 then invalid_arg "Mcmc.run_lookahead: jobs must be at least 1";
  if audit_every < 0 then invalid_arg "Mcmc.run_lookahead: audit_every must be non-negative";
  let width = match width with Some w -> w | None -> Fixed la.la_jobs in
  (match width with
  | Fixed k when k < 1 -> invalid_arg "Mcmc.run_lookahead: Fixed width must be at least 1"
  | _ -> ());
  let accepted = ref 0 and invalid = ref 0 and nonfinite = ref 0 in
  let audits = ref 0 and diverged = ref 0 in
  let initial_energy = la.la_energy () in
  let current = ref initial_energy in
  let stopped = ref false in
  let step = ref start in
  let interim step =
    {
      steps = step - start;
      accepted = !accepted;
      invalid = !invalid;
      refreshed_on_nonfinite = !nonfinite;
      audits = !audits;
      audit_divergences = !diverged;
      interrupted = !stopped;
      initial_energy;
      final_energy = !current;
    }
  in
  (* Steps until the next multiple of cadence [c] strictly after [base]:
     a batch may touch a boundary only with its last consumed step. *)
  let until_boundary base c = if c <= 0 then max_int else c - (base mod c) in
  let batch_index = ref 0 in
  let now () = Unix.gettimeofday () in
  while (not !stopped) && !step < steps do
    Fault.point "mcmc.signal";
    match should_stop with
    | Some f when f () -> stopped := true
    | _ ->
        let base = !step in
        let intent = match width with Fixed k -> k | Schedule f -> max 1 (f !batch_index) in
        incr batch_index;
        let k = min intent (steps - base) in
        let k = min k (until_boundary base audit_every) in
        let k =
          match checkpoint_every with Some c -> min k (until_boundary base c) | None -> k
        in
        Fault.point "mcmc.step";
        let streams = Prng.deal rng k in
        let verdicts = la.la_eval ~pow ~energy:!current streams in
        let t_resolve = match ctrs with Some _ -> now () | None -> 0.0 in
        let consumed =
          let rec scan i =
            if i >= k then k
            else
              match verdicts.(i) with
              | Accepted _ | Nonfinite -> i + 1
              | Invalid | Rejected -> scan (i + 1)
          in
          scan 0
        in
        Prng.advance rng consumed;
        (match ctrs with
        | Some c ->
            c.batches <- c.batches + 1;
            c.k_sum <- c.k_sum + k;
            if k < c.k_min then c.k_min <- k;
            if k > c.k_max then c.k_max <- k
        | None -> ());
        (match on_batch with
        | Some f -> f ~dispatched:k ~consumed
        | None -> ());
        let commit_in_batch = ref 0.0 in
        for j = 0 to consumed - 1 do
          incr step;
          let step = !step in
          (match verdicts.(j) with
          | Invalid -> incr invalid
          | Rejected -> ()
          | Accepted { swap; proposed } ->
              (match ctrs with
              | Some _ ->
                  let t0 = now () in
                  la.la_commit swap ~proposed;
                  commit_in_batch := !commit_in_batch +. (now () -. t0)
              | None -> la.la_commit swap ~proposed);
              current := proposed;
              incr accepted
          | Nonfinite ->
              (* Corruption or overflow produced a non-finite energy: the
                 move is discarded (already aborted by the evaluator); rebuild
                 the maintained state and re-read rather than letting NaN
                 reach the accept/reject decision. *)
              incr nonfinite;
              current := la.la_refresh ());
          (match audit with
          | Some f when audit_every > 0 && step mod audit_every = 0 ->
              Fault.point "mcmc.audit";
              incr audits;
              let divergences = f () in
              if divergences > 0 then begin
                (* The audit repaired the canonical fit; rebuild the
                   replicas from it so the walk continues from truth. *)
                diverged := !diverged + divergences;
                current := la.la_resync ()
              end
          | _ -> ());
          (match on_step with Some f -> f ~step ~energy:!current | None -> ());
          match (on_checkpoint, checkpoint_every) with
          | Some f, Some every when step mod every = 0 && step < steps ->
              f ~step ~stats:(interim step)
          | _ -> ()
        done;
        (match ctrs with
        | Some c ->
            c.commit_us <- c.commit_us +. (1e6 *. !commit_in_batch);
            (* Resolution = everything after the verdicts return that is not
               a commit: the prefix scan, rng advance, and the cadence hooks
               (audit/checkpoint, when they fire). *)
            c.resolve_us <-
              c.resolve_us +. (1e6 *. (now () -. t_resolve -. !commit_in_batch))
        | None -> ())
  done;
  interim !step
