module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Plan = Wpinq_core.Plan
module Flow = Wpinq_core.Flow
module Measurement = Wpinq_core.Measurement
module Dataflow = Wpinq_dataflow.Dataflow
module Wdata = Wpinq_weighted.Wdata
module Fault = Wpinq_persist.Persist.Fault

type measured = Measured : 'a Plan.t * 'a Measurement.t -> measured

(* The engine-side fields are mutable so a rebuild (compaction, audit) can
   swap in a fresh state while the MCMC driver's closures (which capture
   [t]) keep working.  The engine itself is kept: a rebuild
   resets it and builds the new DAG into it. *)
type t = {
  rng : Prng.t;
  engine : Dataflow.Engine.t;
  mutable handle : (int * int) Flow.handle;
  mutable graph : Graph.Mutable.t;
  mutable targets : Flow.Target.t list;
  (* The plans and measurements the targets were built from, kept so the
     fit can rebuild itself (compaction, audit) and stand up replicas
     without the caller re-supplying them. *)
  mutable source : (int * int) Plan.t;
  mutable measured : measured list;
  mutable energy : float;
  mutable built_ids : int; (* the engine's interned ids right after its build *)
}

(* Every invocation creates a fresh lowering context over the input's
   engine, so create / restore / rebuild all reconstruct the same shared
   DAG — the determinism checkpoint resume depends on. *)
let plan_targets ~source ~measured sym =
  let ctx = Flow.Plans.create (Dataflow.engine_of (Flow.node sym)) in
  Flow.Plans.bind ctx source sym;
  List.map (fun (Measured (p, m)) -> Flow.Target.of_plan ctx p m) measured

exception Build_drew_noise of string

(* Over an n-node, m-edge graph, every weight, join norm and running sum
   the shipped queries keep is at most max(n, 2m): a degree-keyed norm is
   a degree, the symmetric input totals 2m and the queries' joins, shaves
   and intersections keep each collection's total within their inputs',
   degree_ccdf's slab 0 is n, and TbI's one record is below m.  A delta
   (new minus old) is at most twice that.  So a graph with max(n, 2m) at
   or past 2^21 is refused before anything is built, rather than partway
   through a walk (DESIGN.md, "Exact accumulation on a grid"). *)
let check_range mg =
  let n = Graph.Mutable.n mg and m = Graph.Mutable.m mg in
  if Float.of_int (2 * max n (2 * m)) >= Dataflow.Grid.limit then
    raise
      (Dataflow.Grid.Overflow
         (Printf.sprintf
            "Fit: a graph of %d nodes and %d edges is beyond the engine's fixed-point range \
             (max(n, 2m) must stay below 2^21)"
            n m))

(* The symmetric edge dataset of a graph, in edge-array order: [(u, v)]
   then [(v, u)] for each edge. *)
let symmetric mg =
  let one = Dataflow.Grid.of_float 1.0 in
  Wdata.build
    (2 * Graph.Mutable.m mg)
    (fun emit ->
      Array.iter
        (fun (u, v) ->
          emit (u, v) one;
          emit (v, u) one)
        (Graph.Mutable.edge_array mg))

(* Engine state built from an explicit edge array: the one construction
   under [create_shared] (the seed graph's edge array), [restore_shared]
   (resume from a checkpoint file), [rebuild_shared] (compaction, audit)
   and the replica pool.  It is a bulk build: the input starts holding
   the symmetric edges, every plan node is evaluated once by the batch
   kernels and its engine operator adopts that state, and each target
   retires its sink's initial contents as one delivery, drawing its
   first-seen records in ascending record order.  Accumulation is exact,
   so any fit over the same edge multiset and measurements reads
   bit-identical energies — which is what lets a resumed chain, a live
   chain and the replicas of a parallel walk agree.

   That agreement also needs the build to draw no noise the live engine
   did not.  A sink is shown only its final records, so a build over
   measurements that already hold the live walk's observations draws
   nothing; every build but a [first] one, which materializes its
   measurements' observations, checks that no measurement's noise cursor
   moved (over measurements of another graph, say, it would). *)
let attach ~first ~source ~measured engine mg =
  let marks = List.map (fun (Measured (_, m)) -> Measurement.mark m) measured in
  let handle, sym = Flow.input ~init:(symmetric mg) engine in
  let built = plan_targets ~source ~measured sym in
  Dataflow.Engine.end_build engine;
  if not first then
    List.iteri
      (fun i (Measured (_, m), mark) ->
        if Measurement.mark m <> mark then
          raise
            (Build_drew_noise
               (Printf.sprintf
                  "Fit: measurement #%d drew fresh noise in a rebuild; it holds no observation \
                   for a record the build shows"
                  i)))
      (List.combine measured marks);
  (handle, built)

let of_mutable ~first ~rng ~source ~measured mg =
  check_range mg;
  let engine = Dataflow.Engine.create () in
  let handle, built = attach ~first ~source ~measured engine mg in
  {
    rng;
    engine;
    handle;
    graph = mg;
    targets = built;
    source;
    measured;
    energy = Flow.Target.energy built;
    built_ids = Dataflow.Engine.interned_ids engine;
  }

let create_shared ~rng ~seed_graph ~source ~measured () =
  of_mutable ~first:true ~rng ~source ~measured (Graph.Mutable.of_graph seed_graph)

let restore_shared ~rng ~n ~edges ~source ~measured () =
  of_mutable ~first:true ~rng ~source ~measured (Graph.Mutable.of_edge_array ~n edges)

(* The rebuilt DAG goes into the fit's own engine, so the engine's
   lifetime counters (commits, aborts, traffic) span every rebuild.  The
   fit lets go of the old DAG (its input handle and targets) and collects
   it before the new one is built, so the build reuses its memory instead
   of growing the heap to hold both.  The peak needs that collection:
   without it, perfbench's peak RSS rose from 164 to 192 MB on `grqc-tbi`
   and from 47 to 53 MB on `stream-churn` (one 10 s run each, with builds
   giving every table room), while `fit.audit_s` moved within noise on
   all three workloads. *)
let rebuild_shared t ~n ~edges ~source ~measured =
  let mg = Graph.Mutable.of_edge_array ~n edges in
  check_range mg;
  Dataflow.Engine.reset t.engine;
  (* A detached placeholder, so the old input no longer holds the old DAG. *)
  t.handle <- fst (Flow.input (Dataflow.Engine.create ()));
  t.targets <- [];
  Gc.full_major ();
  Fault.point "fit.rebuild";
  let handle, built = attach ~first:false ~source ~measured t.engine mg in
  t.handle <- handle;
  t.graph <- mg;
  t.targets <- built;
  t.source <- source;
  t.measured <- measured;
  t.energy <- Flow.Target.energy built;
  t.built_ids <- Dataflow.Engine.interned_ids t.engine

(* A fresh build from the fit's own edge array over its live measurements. *)
let rebuild_own t =
  rebuild_shared t ~n:(Graph.Mutable.n t.graph) ~edges:(Graph.Mutable.edge_array t.graph)
    ~source:t.source ~measured:t.measured

(* Interning is monotone: an engine keeps every record any proposal ever
   touched, aborted ones included.  So once the engine's interned ids have
   doubled since its last build (a compaction or an audit), the fit
   rebuilds itself — but never below twice [compaction_floor] ids, so a
   small fit does not rebuild every few hundred steps for a few megabytes.
   O(1) amortized per id; called at the lookahead walk's batch boundaries,
   where every fit is quiescent. *)
let compaction_floor = 1 lsl 18
let grown t = Dataflow.Engine.interned_ids t.engine >= 2 * max t.built_ids compaction_floor
let compact t = if grown t then rebuild_own t

let graph t = Graph.Mutable.to_graph t.graph
let triangle_count t = Graph.Mutable.triangle_count t.graph
let assortativity t = Graph.Mutable.assortativity t.graph
let edge_array t = Graph.Mutable.edge_array t.graph
let nodes t = Graph.Mutable.n t.graph
let rng t = t.rng
let energy t = t.energy
let engine t = t.engine
let targets t = t.targets

(* A proposal is installed speculatively: the graph edit is applied and the
   swap's 8-record delta propagates through the engine under an undo log.
   Acceptance commits (discards the log); rejection reverts the O(1) graph
   edit and replays the log — O(cells touched), with no second DAG
   propagation and no float round-trip drift. *)
let speculate_swap t swap =
  Dataflow.Engine.begin_speculation t.engine;
  Graph.Mutable.apply t.graph swap;
  Flow.feed t.handle (Graph.Mutable.delta swap)

let commit_swap t = Dataflow.Engine.commit t.engine

let abort_swap t swap =
  Graph.Mutable.apply t.graph (Graph.Mutable.invert swap);
  Dataflow.Engine.abort t.engine

(* Commit a swap that has already won: the same graph edit + 8-record feed
   as [speculate_swap], but propagated {e outside} any speculation, so no
   undo closures are recorded and no commit drain is paid.  The mutation
   path through the engine is byte-identical to speculate-then-commit
   (speculation only adds undo logging around it), which is what lets
   replicas absorb winning swaps as O(delta) committed deltas instead of a
   second full speculative evaluation. *)
let delta_commit t swap ~proposed =
  Graph.Mutable.apply t.graph swap;
  Flow.feed t.handle (Graph.Mutable.delta swap);
  t.energy <- proposed

let refresh t =
  List.iter Flow.Target.recompute t.targets;
  t.energy <- Flow.Target.energy t.targets

(* The audit is the walk's fresh-build point: read the live state digests
   and exact target distances, rebuild in place, compare.  A healthy
   engine is bit-equal to a fresh build (exact accumulation), so any
   difference is corruption; keeping the fresh engine either way is the
   recovery and restarts the compaction baseline. *)
let audit t =
  let live = Dataflow.Engine.digests t.engine in
  let distances = List.map Flow.Target.exact_distance t.targets in
  rebuild_own t;
  let fresh = Dataflow.Engine.digests t.engine in
  (* The same plans build the same DAG, so the cells pair up. *)
  assert (Array.length live = Array.length fresh);
  let divs = ref [] in
  let diverge cell maintained recomputed =
    divs := Dataflow.Audit.divergence ~cell ~maintained ~recomputed :: !divs
  in
  Array.iteri
    (fun i d ->
      if d <> fresh.(i) then
        diverge (Dataflow.Engine.digest_cell t.engine i) (Float.of_int d) (Float.of_int fresh.(i)))
    live;
  List.iteri
    (fun i (d, target) ->
      let d' = Flow.Target.exact_distance target in
      if not (Dataflow.Grid.Wide.equal d d') then
        let cell = Printf.sprintf "target#%d.distance" i in
        diverge cell (Dataflow.Grid.Wide.to_float d) (Dataflow.Grid.Wide.to_float d'))
    (List.combine distances t.targets);
  let cells_checked = Array.length fresh + List.length distances in
  { Dataflow.Audit.cells_checked; divergences = List.rev !divs }

(* ---- The lookahead pool: the owner is worker 0 ---- *)

module Pool = struct
  type fit = t

  (* At [jobs = K] the owner fit evaluates slice 0 of every batch on the
     calling domain, and [K - 1] replicas evaluate the other slices, one
     per worker domain; [jobs = 1] is the case with no replica, no domain
     and no measurement copy.  A worker owns one replica and is the only
     domain that ever touches it; the scheduler hands it closures across a
     mutex/condition mailbox, so every access is ordered by a
     happens-before edge.  The mailbox carries a whole batch slice per
     publication — one lock acquisition (and at most one futex wakeup) per
     worker per batch, however deep the lookahead — and completion is
     collected the same way, so the handshake cost is amortized over the
     slice instead of paid per proposal. *)
  type worker = {
    mutex : Mutex.t;
    has_job : Condition.t;
    job_done : Condition.t;
    mutable job : (unit -> unit) option;
    mutable pending : bool;
    mutable stopping : bool;
    mutable failed : exn option;
  }

  type t = {
    owner : fit;
    jobs : int;
    replicas : fit array; (* [jobs - 1]; replica [i] evaluates slice [i + 1] *)
    workers : worker array; (* worker [i] owns replica [i] *)
    domains : unit Domain.t array;
    counters : Mcmc.counters option;
    (* The committed-delta log (empty without replicas): every winning
       swap, in commit order, with its post-commit energy.  The owner
       commits a winner immediately (it is the canonical state checkpoints
       and audits read); each replica absorbs its backlog lazily,
       piggybacked on the next batch publication to its worker, so a commit
       costs the scheduler no worker handshake.  [applied.(i)] counts the
       log prefix replica [i] has absorbed; the log is compacted once every
       replica has caught up.  Happens-before: a worker only touches the
       log inside a posted job, and the scheduler only appends/compacts
       between [await]s, so every access is ordered by the mailbox
       mutexes. *)
    mutable log : (Graph.Mutable.swap * float) array;
    mutable log_len : int;
    applied : int array;
  }

  let worker_loop w =
    let rec loop () =
      Mutex.lock w.mutex;
      while w.job = None && not w.stopping do
        Condition.wait w.has_job w.mutex
      done;
      let job = w.job in
      w.job <- None;
      Mutex.unlock w.mutex;
      match job with
      | None -> () (* stopping, mailbox drained *)
      | Some f ->
          (try f ()
           with e ->
             Mutex.lock w.mutex;
             w.failed <- Some e;
             Mutex.unlock w.mutex);
          Mutex.lock w.mutex;
          w.pending <- false;
          Condition.signal w.job_done;
          Mutex.unlock w.mutex;
          loop ()
    in
    loop ()

  let post w f =
    Mutex.lock w.mutex;
    w.job <- Some f;
    w.pending <- true;
    Condition.signal w.has_job;
    Mutex.unlock w.mutex

  let await w =
    Mutex.lock w.mutex;
    while w.pending do
      Condition.wait w.job_done w.mutex
    done;
    let failed = w.failed in
    w.failed <- None;
    Mutex.unlock w.mutex;
    match failed with Some e -> raise e | None -> ()

  (* Run [f i] for every replica index on its owning worker domain, and
     wait for all of them.  Nothing to do when the pool has no replicas. *)
  let on_replicas pool f =
    Array.iteri (fun i w -> post w (fun () -> f i)) pool.workers;
    Array.iter await pool.workers

  (* A replica is a full fit clone rebuilt from the owner's current edge
     array through the shared deterministic [attach] path, over
     deep-copied measurements (values + private noise cursor), so each
     replica draws its own — but bit-identical — lazy observations.
     Every replica is therefore bit-identical to the owner it was built
     from — for any pool width — which is what makes the realized chain
     invariant to [jobs]. *)
  let copy_measured owner =
    List.map (fun (Measured (p, m)) -> Measured (p, Measurement.copy m)) owner.measured

  let fresh_replica ~measured owner =
    of_mutable ~first:false ~source:owner.source ~measured
      ~rng:(Prng.copy owner.rng) (* never drawn from: evaluation uses per-step streams *)
      (Graph.Mutable.of_edge_array ~n:(Graph.Mutable.n owner.graph)
         (Graph.Mutable.edge_array owner.graph))

  (* Stop the workers, and drop a winner the owner still holds open when
     the walk was cut short between [eval] and [commit] (a hook raised):
     the owner is left at its last committed state. *)
  let shutdown pool =
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.stopping <- true;
        Condition.broadcast w.has_job;
        Mutex.unlock w.mutex)
      pool.workers;
    Array.iter Domain.join pool.domains;
    if Dataflow.Engine.speculating pool.owner.engine then Dataflow.Engine.abort pool.owner.engine

  let create ?counters owner ~jobs =
    if jobs < 1 then invalid_arg "Fit.Pool.create: jobs must be at least 1";
    let replicas = jobs - 1 in
    let workers =
      Array.init replicas (fun _ ->
          {
            mutex = Mutex.create ();
            has_job = Condition.create ();
            job_done = Condition.create ();
            job = None;
            pending = false;
            stopping = false;
            failed = None;
          })
    in
    let domains = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers in
    let pool =
      {
        owner;
        jobs;
        replicas = Array.make replicas owner;
        workers;
        domains;
        counters;
        log = [||];
        log_len = 0;
        applied = Array.make replicas 0;
      }
    in
    (* Measurement copies are made in the scheduler domain; each replica
       is then built by its owning worker so its engine's memory lands in
       the domain that will drive it.  If any copy or replica construction
       raises, the spawned domains are stopped and joined before the
       exception escapes — [create] never leaks a domain. *)
    (try
       let copies = Array.init replicas (fun _ -> copy_measured owner) in
       on_replicas pool (fun i -> pool.replicas.(i) <- fresh_replica ~measured:copies.(i) owner)
     with e ->
       shutdown pool;
       raise e);
    pool

  let energy pool = pool.owner.energy

  let now () = Unix.gettimeofday ()

  (* Absorb replica [i]'s backlog of committed deltas: apply every log
     entry it has not yet seen, in commit order, through the same
     non-speculative feed the owner's delta commits use — byte-identical
     state, O(delta) per entry.  Runs on the replica's owning worker
     domain. *)
  let flush_replica pool i =
    let upto = pool.log_len in
    if pool.applied.(i) < upto then begin
      let r = pool.replicas.(i) in
      for e = pool.applied.(i) to upto - 1 do
        let swap, proposed = pool.log.(e) in
        delta_commit r swap ~proposed
      done;
      pool.applied.(i) <- upto
    end

  (* Contiguous balanced slice [lo, hi) of a [k]-wide batch owned by
     evaluator [j] (0 the owner, [i + 1] replica [i]): the first
     [k mod jobs] evaluators take one extra stream, so the owner always
     holds the batch's first positions. *)
  let slice pool k j =
    let q = k / pool.jobs and r = k mod pool.jobs in
    let lo = (j * q) + min j r in
    (lo, lo + q + if j < r then 1 else 0)

  (* Evaluate one per-step stream speculatively against the fit's committed
     state.  A loser is aborted — rollback includes the undo-logged lazy
     measurement draws — so the fit is back at the base state.  A winner
     is left open when [keep] (the owner: [commit] keeps it in place), and
     aborted otherwise (a replica: [commit] feeds it to the owner as a
     committed delta). *)
  let eval_one ~keep r stream ~pow ~energy =
    match Graph.Mutable.propose_swap r.graph stream with
    | None -> Mcmc.Invalid
    | Some swap ->
        speculate_swap r swap;
        let proposed = Flow.Target.energy r.targets in
        if Float.is_finite proposed then begin
          let delta = proposed -. energy in
          if delta <= 0.0 || Prng.uniform stream < exp (-.pow *. delta) then begin
            if keep then
              (* Only the O(1) graph edit is undone, so hooks that run for the
                 steps before the winner still read the pre-batch graph;
                 [commit] re-applies it. *)
              Graph.Mutable.apply r.graph (Graph.Mutable.invert swap)
            else abort_swap r swap;
            Mcmc.Accepted { swap; proposed }
          end
          else begin
            abort_swap r swap;
            Mcmc.Rejected
          end
        end
        else begin
          abort_swap r swap;
          Mcmc.Nonfinite
        end

  (* The one slice loop, run by every evaluator: evaluate positions
     [lo, hi) in order and stop at the first winner or non-finite reading.
     The scheduler consumes the batch only up to its first such position,
     so the positions after it are never read: evaluating them would be
     wasted work.  Verdict writes are disjoint by index. *)
  let eval_slice ~keep r ~pow ~energy streams verdicts lo hi =
    let rec go i =
      if i < hi then
        match eval_one ~keep r streams.(i) ~pow ~energy with
        | (Mcmc.Invalid | Mcmc.Rejected) as v ->
            verdicts.(i) <- v;
            go (i + 1)
        | (Mcmc.Accepted _ | Mcmc.Nonfinite) as v -> verdicts.(i) <- v
    in
    go lo

  (* After an audit found the owner's state corrupt, or when the replicas'
     interns have grown: rebuild every replica from the owner's
     current state through the same path [create] used.  The rebuilt
     replicas embody every committed delta, so the log restarts empty.
     With no replicas this only re-reads the owner's energy. *)
  let resync pool =
    pool.log_len <- 0;
    Array.fill pool.applied 0 (Array.length pool.applied) 0;
    let copies = Array.map (fun _ -> copy_measured pool.owner) pool.replicas in
    on_replicas pool (fun i -> pool.replicas.(i) <- fresh_replica ~measured:copies.(i) pool.owner);
    energy pool

  (* A batch boundary: every fit is quiescent.  Every fit grows by its
     speculations, the owner also by committed deltas. *)
  let compact_pool pool =
    compact pool.owner;
    if Array.exists grown pool.replicas then ignore (resync pool)

  (* One publication per replica whose slice is non-empty — its slice,
     prefixed by its backlog flush — then the owner evaluates slice 0 on
     this domain while the replicas run, then the scheduler awaits them.
     Evaluator [j]'s slice is non-empty exactly when [j < k]; replicas
     with an empty slice (k < jobs) are not woken, and their backlog waits
     for a wider batch.  The owner evaluating during dispatch races with
     nothing: it touches only its own fit and its own verdict positions,
     the replicas touch only theirs and the log, and the log is written
     only by [commit], after every [await]. *)
  let eval pool ~pow ~energy streams =
    compact_pool pool;
    let k = Array.length streams in
    let verdicts = Array.make k Mcmc.Invalid in
    let busy = min (k - 1) (Array.length pool.replicas) in
    let timed = Option.is_some pool.counters in
    let t0 = if timed then now () else 0.0 in
    for i = 0 to busy - 1 do
      let lo, hi = slice pool k (i + 1) in
      post pool.workers.(i) (fun () ->
          flush_replica pool i;
          eval_slice ~keep:false pool.replicas.(i) ~pow ~energy streams verdicts lo hi)
    done;
    let t1 = if timed && busy > 0 then now () else t0 in
    let lo, hi = slice pool k 0 in
    eval_slice ~keep:true pool.owner ~pow ~energy streams verdicts lo hi;
    for i = 0 to busy - 1 do
      await pool.workers.(i)
    done;
    (match pool.counters with
    | Some c ->
        c.Mcmc.dispatch_us <- c.Mcmc.dispatch_us +. (1e6 *. (t1 -. t0));
        c.Mcmc.eval_us <- c.Mcmc.eval_us +. (1e6 *. (now () -. t1))
    | None -> ());
    verdicts

  (* Commit a winning swap.  A winner the owner found is still held open
     from [eval]: re-apply the graph edit and keep the engine state in
     place ([Engine.commit] discards the undo log).  A winner a replica
     found is fed to the owner — the canonical fit checkpoints and audits
     read — as an O(delta) committed delta.  Either way the replicas only
     get a log entry to absorb at their next dispatch. *)
  let commit pool swap ~proposed =
    let owner = pool.owner in
    if Array.length pool.replicas > 0 then begin
      (* Compact once every replica has caught up — between batches the
         log is usually empty again, so it stays a few entries long. *)
      if pool.log_len > 0 && Array.for_all (fun a -> a = pool.log_len) pool.applied then begin
        pool.log_len <- 0;
        Array.fill pool.applied 0 (Array.length pool.applied) 0
      end;
      pool.log <- Wpinq_weighted.Room.grow pool.log (pool.log_len + 1) (swap, proposed);
      pool.log.(pool.log_len) <- (swap, proposed);
      pool.log_len <- pool.log_len + 1
    end;
    if Dataflow.Engine.speculating owner.engine then begin
      Graph.Mutable.apply owner.graph swap;
      commit_swap owner;
      owner.energy <- proposed
    end
    else delta_commit owner swap ~proposed

  let refresh_pool pool =
    on_replicas pool (fun i ->
        flush_replica pool i;
        refresh pool.replicas.(i));
    refresh pool.owner;
    energy pool

  let lookahead pool =
    {
      Mcmc.la_jobs = pool.jobs;
      la_energy = (fun () -> energy pool);
      la_eval = (fun ~pow ~energy streams -> eval pool ~pow ~energy streams);
      la_commit = (fun swap ~proposed -> commit pool swap ~proposed);
      la_refresh = (fun () -> refresh_pool pool);
      la_resync = (fun () -> resync pool);
    }
end

let run t ~steps ?start ?(pow = 1.0) ?audit_every ?should_stop ?checkpoint_every ?on_checkpoint
    ?on_step ?(jobs = 1) ?on_batch ?width ?counters () =
  let audit () = List.length (audit t).Dataflow.Audit.divergences in
  (* Speculative lookahead.  [t] evaluates the first slice of every batch
     and keeps its winner in place; at jobs = K, K - 1 replicas evaluate
     the rest, and [t] — the canonical state that checkpoints, audits and
     callers read — replays their winners as committed deltas.  Every
     evaluator starts from the same attach-built state, so every width
     walks the same chain (DESIGN.md, "Parallel speculative lookahead"). *)
  let pool = Pool.create ?counters t ~jobs in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let stats =
        Mcmc.run_lookahead ~rng:t.rng ~lookahead:(Pool.lookahead pool) ~steps ?start ~pow ~audit
          ?audit_every ?should_stop ?checkpoint_every ?on_checkpoint ?on_batch ?on_step ?width
          ?counters ()
      in
      t.energy <- stats.Mcmc.final_energy;
      stats)
