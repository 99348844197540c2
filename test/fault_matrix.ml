(* Randomized kill/corrupt recovery matrix (CI's long-haul harness, also
   runnable by hand: `fault_matrix --seed 7 --rounds 10`).

   Each round kills a checkpointed synthesis run at a random step (or in
   the middle of the next in-place rebuild after it: an audit or a
   compaction), corrupts
   a random subset of the surviving checkpoint generations (random bit
   flips or truncations — always leaving at least one generation intact),
   optionally kills the resumed run too, and then demands that the final
   recovered result be bit-identical to the uninterrupted reference run:
   same edges, same counters, same energy bit patterns, same trace, same
   spent budget.  Exits 1 on the first mismatch. *)

module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Persist = Wpinq_persist.Persist
module Fault = Persist.Fault
module W = Wpinq_infer.Workflow
module Mcmc = Wpinq_infer.Mcmc
module Ledger = Wpinq_service.Ledger
module Event = Wpinq_stream.Event
module Sup = Wpinq_stream.Supervisor

let steps = 1500
let every = 300
let audit_every = 200
let trace_every = 500
let keep = 3
let failures = ref 0

let check name cond =
  if not cond then begin
    Printf.eprintf "FAIL: %s\n%!" name;
    incr failures
  end

let check_bits name a b = check name (Int64.bits_of_float a = Int64.bits_of_float b)

let check_result round (expect : W.result) (got : W.result) =
  let name what = Printf.sprintf "round %d: %s" round what in
  check (name "synthetic edges")
    (Graph.edges expect.W.synthetic = Graph.edges got.W.synthetic);
  check (name "seed edges") (Graph.edges expect.W.seed = Graph.edges got.W.seed);
  let es = expect.W.stats and gs = got.W.stats in
  check (name "steps") (es.Mcmc.steps = gs.Mcmc.steps);
  check (name "accepted") (es.Mcmc.accepted = gs.Mcmc.accepted);
  check (name "invalid") (es.Mcmc.invalid = gs.Mcmc.invalid);
  check (name "not interrupted") (not gs.Mcmc.interrupted);
  check_bits (name "final energy") es.Mcmc.final_energy gs.Mcmc.final_energy;
  check (name "trace length") (List.length expect.W.trace = List.length got.W.trace);
  List.iter2
    (fun (e : W.trace_point) (g : W.trace_point) ->
      check (name "trace step") (e.W.step = g.W.step);
      check (name "trace triangles") (e.W.triangles = g.W.triangles);
      check_bits (name "trace energy") e.W.energy g.W.energy)
    expect.W.trace got.W.trace;
  check_bits (name "total epsilon") expect.W.total_epsilon got.W.total_epsilon

let with_store_dir f =
  let dir = Filename.temp_file "wpinq_matrix" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let synthesize ?jobs ?width store =
  W.synthesize ?jobs ?width ~steps ~trace_every ~audit_every ~pow:100.0
    ~checkpoint:{ W.every; sink = W.Store store }
    ~rng:(Prng.create 123) ~epsilon:0.5 ~query:(Some W.Tbi)
    ~secret:(Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 5))
    ()

let random_corruption st size =
  if Random.State.bool st then Fault.Bit_flip (Random.State.int st (8 * size))
  else Fault.Truncate_at (Random.State.int st size)

let round st round =
  with_store_dir (fun dir ->
      let store = Persist.Store.open_dir ~keep dir in
      (* Kill after at least one generation exists (first snapshot lands at
         step [every]): at a step, or inside the first in-place rebuild after
         that step — one comes at the last audit, at the latest. *)
      let rebuild = Random.State.bool st in
      let last_audit = (steps - 1) / audit_every * audit_every in
      let kill_at =
        every + 1 + Random.State.int st ((if rebuild then last_audit else steps) - every - 1)
      in
      if rebuild then
        Fault.arm_action ~site:"mcmc.step" ~after:kill_at (fun () ->
            Fault.arm ~site:"fit.rebuild" ~after:1)
      else Fault.arm ~site:"mcmc.step" ~after:kill_at;
      let site = if rebuild then "the rebuild after step" else "step" in
      (match synthesize store with
      | exception Fault.Injected _ -> ()
      | _ ->
          Printf.eprintf "round %d: kill at %s %d never fired\n%!" round site kill_at;
          incr failures);
      (* Corrupt a random strict subset of the surviving generations,
         newest-first — the resume must fall back past every one of them. *)
      let gens = Persist.Store.generations store in
      let n_gens = List.length gens in
      check (Printf.sprintf "round %d: generations on disk" round) (n_gens >= 1);
      let n_corrupt = if n_gens <= 1 then 0 else Random.State.int st n_gens in
      List.iteri
        (fun i (_, path) ->
          if i < n_corrupt then
            let size = (Unix.stat path).Unix.st_size in
            Fault.corrupt ~path (random_corruption st size))
        gens;
      (* Sometimes kill the resumed run as well before the final recovery. *)
      let second_kill = ref false in
      let resumed =
        if Random.State.bool st then begin
          Fault.arm ~site:"mcmc.step" ~after:(1 + Random.State.int st 400);
          match W.resume_latest ~store () with
          | exception Fault.Injected _ ->
              second_kill := true;
              None
          | r ->
              Fault.disarm ();
              Some r
        end
        else None
      in
      let got = match resumed with Some r -> r | None -> W.resume_latest ~store () in
      Printf.printf
        "round %d: killed at %s %d, corrupted %d/%d generation(s)%s — recovered\n%!" round
        site kill_at n_corrupt n_gens
        (if !second_kill then ", killed resume too" else "");
      got)

(* Same kill/corrupt drill, but the victim walks with a parallel lookahead
   (--jobs 2) and recovers at yet another width (--jobs 4); the result must
   still be bit-identical to the *serial* uninterrupted reference.  Faults
   only fire at lookahead-batch boundaries, and the "mcmc.step" site fires
   once per batch: a batch consumes between 1 and [max_consumed] steps
   (its fixed width), so over [steps] steps the site fires at least
   [steps / max_consumed] times — the kill budget.  Each firing also
   completes at least one step, so any kill past [every] firings lands
   after the first checkpoint generation.  The wide variant
   ([width = Fixed 4] at jobs=2) kills mid-walk while the owner and the
   replica each evaluate a two-stream slice, so a batch's winner may be
   held open on the owner or fed to it from the replica, and its consumed
   prefix is anything from 1 to 4 steps. *)
let multicore_round ?width ~max_consumed ~label st round =
  with_store_dir (fun dir ->
      let store = Persist.Store.open_dir ~keep dir in
      let budget = (steps / max_consumed) - every - 5 in
      assert (budget > 0);
      let kill_at = every + 1 + Random.State.int st budget in
      Fault.arm ~site:"mcmc.step" ~after:kill_at;
      (match synthesize ~jobs:2 ?width store with
      | exception Fault.Injected _ -> ()
      | _ ->
          Printf.eprintf "round %d: %s kill at batch %d never fired\n%!" round label kill_at;
          incr failures);
      let gens = Persist.Store.generations store in
      let n_gens = List.length gens in
      check (Printf.sprintf "round %d: generations on disk" round) (n_gens >= 1);
      let n_corrupt = if n_gens <= 1 then 0 else Random.State.int st n_gens in
      List.iteri
        (fun i (_, path) ->
          if i < n_corrupt then
            let size = (Unix.stat path).Unix.st_size in
            Fault.corrupt ~path (random_corruption st size))
        gens;
      let got = W.resume_latest ~jobs:4 ?width ~store () in
      Printf.printf
        "round %d: %s killed at batch %d, corrupted %d/%d generation(s), jobs=4 recovery \
         — recovered\n\
         %!"
        round label kill_at n_corrupt n_gens;
      got)

(* ---------------- the budget-ledger arm of the matrix ----------------

   A scripted mixed-tenant run (one root, four delegated tenants, a
   deterministic escrow/commit/release stream) killed at every WAL and
   atomic-layer fault-injection site, then recovered.  After every
   kill/corrupt/recover cycle the books must satisfy, for every tenant,

     spent + committed <= allocated   (zero overspend)

   and every *acknowledged* commit — one whose [Ledger.commit] returned
   [Ok] before the kill — must still be counted in the recovered spent
   (an fsynced acknowledgment is durable).  Clean runs must replay
   bit-identically against an in-memory serial reference. *)

let ledger_ops = 160

(* The deterministic program.  [acks] accumulates per-tenant ε whose
   commit was acknowledged — the durability obligation. *)
let ledger_program ?acks l rng =
  let note tenant cost =
    match acks with
    | None -> ()
    | Some h ->
        Hashtbl.replace h tenant
          (cost +. Option.value (Hashtbl.find_opt h tenant) ~default:0.0)
  in
  (match Ledger.create_root l ~tenant:"root" ~allocated:8.0 with
  | Ok () | Error _ -> ());
  for i = 0 to 3 do
    ignore
      (Ledger.delegate l ~parent:"root" ~tenant:(Printf.sprintf "a%d" i) ~allocated:1.5)
  done;
  let open_ids = ref [] in
  for _ = 1 to ledger_ops do
    let tenant = Printf.sprintf "a%d" (Prng.int rng 4) in
    match Prng.int rng 4 with
    | 0 | 1 -> (
        let cost = 0.01 *. float_of_int (1 + Prng.int rng 10) in
        match Ledger.escrow l ~tenant ~cost ~label:"q" with
        | Ok id -> open_ids := (id, tenant, cost) :: !open_ids
        | Error _ -> ())
    | 2 -> (
        match !open_ids with
        | (id, tenant, cost) :: rest ->
            (match Ledger.commit l id with Ok () -> note tenant cost | Error _ -> ());
            open_ids := rest
        | [] -> ())
    | _ -> (
        match !open_ids with
        | (id, _, _) :: rest ->
            ignore (Ledger.release l id);
            open_ids := rest
        | [] -> ())
  done;
  List.iter
    (fun (id, tenant, cost) ->
      match Ledger.commit l id with Ok () -> note tenant cost | Error _ -> ())
    !open_ids

(* Recovery may itself be killed by a still-armed fault (that, too, is a
   crash point); a real operator would simply restart, so we do. *)
let rec recover_with_retry dir =
  match Ledger.open_dir dir with
  | exception Fault.Injected _ ->
      Fault.disarm ();
      recover_with_retry dir
  | opened -> opened

let check_books name l ~acks =
  (match Ledger.overspend l with
  | [] -> ()
  | (tenant, excess) :: _ ->
      check (Printf.sprintf "%s: ZERO overspend (%s over by %.12g)" name tenant excess) false);
  check (name ^ ": no escrow survives recovery open") (Ledger.open_escrows l = 0);
  match acks with
  | None -> ()
  | Some h ->
      Hashtbl.iter
        (fun tenant eps ->
          match Ledger.spent l ~tenant with
          | Some s ->
              check
                (Printf.sprintf "%s: acknowledged ε durable for %s (%.6g >= %.6g)" name
                   tenant s eps)
                (s +. 1e-9 >= eps)
          | None -> check (name ^ ": tenant " ^ tenant ^ " survives recovery") false)
        h

(* Recovery must also be *stable*: recovering the recovered state is the
   identity, bit for bit. *)
let check_recovery_stable name dir first_dump =
  let l, recovery = recover_with_retry dir in
  check (name ^ ": recovery is idempotent") (Ledger.dump l = first_dump);
  check (name ^ ": nothing left in doubt on second open")
    (recovery.Ledger.charged_on_doubt = 0);
  Ledger.close l

let ledger_armed_round st r site =
  with_store_dir (fun dir ->
      let acks = Hashtbl.create 8 in
      let after =
        match site with
        | "wal.append" | "wal.fsync" -> 1 + Random.State.int st 80
        | "wal.replay" -> 1 + Random.State.int st 30
        | "wal.compact" | "wal.reset" -> 1 + Random.State.int st 3
        | _ -> 1 + Random.State.int st 6 (* atomic.* fire twice per compaction *)
      in
      let killed =
        if String.equal site "wal.replay" then begin
          (* This site only fires while parsing the journal on open: run
             the program cleanly, then kill the *recovery*. *)
          let l, _ = Ledger.open_dir ~compact_every:8 dir in
          ledger_program ~acks l (Prng.create ((1000 * r) + 7));
          Ledger.close l;
          Fault.arm ~site ~after;
          true
        end
        else begin
          Fault.arm ~site ~after;
          match
            let l, _ = Ledger.open_dir ~compact_every:8 dir in
            ledger_program ~acks l (Prng.create ((1000 * r) + 7))
            (* Simulated kill: the live ledger is abandoned un-closed. *)
          with
          | () -> false
          | exception Fault.Injected _ -> true
        end
      in
      let l, _recovery = recover_with_retry dir in
      let name = Printf.sprintf "round %d [%s after %d]" r site after in
      check_books name l ~acks:(Some acks);
      let dump = Ledger.dump l in
      Ledger.close l;
      check_recovery_stable name dir dump;
      Printf.printf "%s: %s — books safe\n%!" name
        (if killed then "killed and recovered" else "fault never fired (clean finish)"))

let ledger_corrupt_round st r =
  with_store_dir (fun dir ->
      let l, _ = Ledger.open_dir ~compact_every:8 dir in
      ledger_program l (Prng.create ((500 * r) + 3));
      Ledger.close l;
      (* Bit rot over a random non-empty subset of the durable artifacts:
         the journal and any snapshot generation are all fair game (even
         all of them at once — recovery must never overspend, whatever
         survives). *)
      let targets =
        Filename.concat dir "wal.log"
        :: (Array.to_list (Sys.readdir dir)
           |> List.filter (fun n -> Filename.check_suffix n ".wpq")
           |> List.map (Filename.concat dir))
      in
      let n = 1 + Random.State.int st (List.length targets) in
      let victims = List.filteri (fun i _ -> i < n) targets in
      List.iter
        (fun path ->
          let size = max 1 (Unix.stat path).Unix.st_size in
          Fault.corrupt ~path (random_corruption st size))
        victims;
      let l', _recovery = recover_with_retry dir in
      let name = Printf.sprintf "corrupt round %d (%d/%d artifacts)" r n (List.length targets) in
      check_books name l' ~acks:None;
      let dump = Ledger.dump l' in
      Ledger.close l';
      check_recovery_stable name dir dump;
      Printf.printf "%s — books safe\n%!" name)

let ledger_clean_round r =
  with_store_dir (fun dir ->
      let mem = Ledger.create_in_memory () in
      let dur, _ = Ledger.open_dir ~compact_every:8 dir in
      let seed = (77 * r) + 5 in
      ledger_program mem (Prng.create seed);
      ledger_program dur (Prng.create seed);
      let name = Printf.sprintf "clean round %d" r in
      check (name ^ ": durable run matches in-memory serial reference")
        (Ledger.dump dur = Ledger.dump mem);
      check_books name dur ~acks:None;
      let live = Ledger.dump dur in
      Ledger.close dur;
      let dur', recovery = recover_with_retry dir in
      check (name ^ ": clean replay is bit-identical") (Ledger.dump dur' = live);
      check (name ^ ": nothing charged on doubt") (recovery.Ledger.charged_on_doubt = 0);
      Ledger.close dur';
      Printf.printf "%s — serial reference matched\n%!" name)

let ledger_sites =
  [
    "wal.append";
    "wal.fsync";
    "wal.compact";
    "wal.reset";
    "wal.replay";
    "atomic.write";
    "atomic.fsync";
    "atomic.rename";
    "atomic.dirsync";
  ]

let ledger_matrix st ~rounds =
  for r = 1 to max 1 (rounds / 2) do
    ledger_clean_round r
  done;
  List.iteri
    (fun i site ->
      for k = 1 to rounds do
        ledger_armed_round st ((i * rounds) + k) site
      done)
    ledger_sites;
  for r = 1 to rounds do
    ledger_corrupt_round st r
  done

(* ---------------- the continual-observation arm ----------------

   A scripted three-epoch stream (arrivals building a clustered secret,
   then two rounds of churn) killed at every journal, budget-ledger WAL,
   checkpoint, and walk fault site mid-stream, then recovered and re-run.
   The harness plays an at-least-once client that also restarts the
   supervisor between epochs (so the ledger's replay and compaction on
   open are kill points too): a submit whose acknowledgment the kill
   swallowed is re-submitted only if it provably never became durable
   (the head sequence did not advance), and a tick whose settle was
   already journalled is not repeated.  After every round the recovered
   stream's outcomes, released graphs, protected edge set, and budget
   books must be bit-identical to the uninterrupted reference — and the
   ledger must show zero overspend. *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let with_tree_dir f =
  let dir = Filename.temp_file "wpinq_stream_matrix" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      remove_tree dir)
    (fun () -> f dir)

let stream_cfg () =
  Sup.config ~steps:300 ~pow:100.0 ~checkpoint_every:100 ~trace_every:100 ~per_epoch:2.0
    ~epochs:3 ~seed:3 ()

let stream_phases =
  lazy
    (let ev ?(op = Event.Arrive) t u v = Event.make ~time:(float_of_int t) ~op ~u ~v in
     let base =
       Graph.edges (Gen.clustered ~n:24 ~community:6 ~p_in:0.8 ~extra:10 (Prng.create 9))
     in
     let u0, v0 = List.nth base 0 in
     let phase1 = List.mapi (fun i (u, v) -> ev (i + 1) u v) base in
     let phase2 =
       [ ev 1001 u0 v0 ~op:Event.Depart; ev 1002 0 23; ev 1003 3 21; ev 1004 5 19 ]
     in
     let phase3 = [ ev 2001 5 19 ~op:Event.Depart; ev 2002 7 22; ev 2003 2 18 ] in
     [ phase1; phase2; phase3 ])

type stream_state = {
  s_outcomes : Sup.outcome list;
  s_synthetic : (int * int) list option;
  s_edges : (int * int) list;
  s_books : Sup.books;
  s_consumed : int;
  s_overspend : float;
}

let stream_state sup =
  {
    s_outcomes = Sup.outcomes sup;
    s_synthetic = Option.map Graph.edges (Sup.synthetic sup);
    s_edges = Sup.protected_edges sup;
    s_books = Sup.books sup;
    s_consumed = Sup.consumed sup;
    s_overspend = Sup.overspend sup;
  }

let check_stream_state name (expect : stream_state) (got : stream_state) =
  check (name ^ ": outcomes bit-identical") (got.s_outcomes = expect.s_outcomes);
  check (name ^ ": released synthetic identical") (got.s_synthetic = expect.s_synthetic);
  check (name ^ ": acknowledged events all applied") (got.s_edges = expect.s_edges);
  check (name ^ ": budget books identical") (got.s_books = expect.s_books);
  check (name ^ ": stream position identical") (got.s_consumed = expect.s_consumed);
  check (name ^ ": ZERO budget overspend") (got.s_overspend = 0.0)

let stream_reference () =
  with_tree_dir (fun dir ->
      let sup, _ = Sup.open_dir ~config:(stream_cfg ()) dir in
      List.iter
        (fun phase ->
          List.iter (fun e -> ignore (Sup.submit sup e)) phase;
          ignore (Sup.tick sup))
        (Lazy.force stream_phases);
      let state = stream_state sup in
      Sup.close sup;
      state)

(* The armed round's drive over [dir]: the three phases with a restart
   between them, recovering from every injected kill as a crashed process
   would (reopen, then resume the client's work).  Returns the live
   supervisor and whether a kill fired. *)
let stream_drive cfg dir =
  let killed = ref false in
  let rec reopen () =
    match Sup.open_dir ~config:cfg dir with
    | sup, _ -> sup
    | exception Fault.Injected _ ->
        killed := true;
        Fault.disarm ();
        reopen ()
  in
  let sup = ref (reopen ()) in
  let submit_safe e =
    let h0 = Sup.head !sup in
    try ignore (Sup.submit !sup e)
    with Fault.Injected _ ->
      killed := true;
      Fault.disarm ();
      sup := reopen ();
      (* At-least-once client: re-submit only if the acknowledgment
         provably never became durable. *)
      if Sup.head !sup = h0 then ignore (Sup.submit !sup e)
  in
  let tick_safe () =
    let before = List.length (Sup.outcomes !sup) in
    let rec go () =
      try ignore (Sup.tick !sup)
      with Fault.Injected _ ->
        killed := true;
        Fault.disarm ();
        sup := reopen ();
        (* A kill in the settle window can land after the outcome is
           durable; only an unsettled epoch is ticked again. *)
        if List.length (Sup.outcomes !sup) <= before then go ()
    in
    go ()
  in
  let restart () =
    Sup.close !sup;
    sup := reopen ()
  in
  List.iteri
    (fun i phase ->
      if i > 0 then restart ();
      List.iter submit_safe phase;
      tick_safe ())
    (Lazy.force stream_phases);
  (!sup, !killed)

(* How often a clean drive passes [site]: a hook that re-arms itself
   counts every pass. *)
let stream_hits site =
  with_tree_dir (fun dir ->
      let hits = ref 0 in
      let rec count () =
        incr hits;
        Fault.arm_action ~site ~after:1 count
      in
      Fault.arm_action ~site ~after:1 count;
      let sup, _ = stream_drive (stream_cfg ()) dir in
      Fault.disarm ();
      Sup.close sup;
      !hits)

(* A kill at a pass the clean drive makes, drawn within [hits], must fire:
   the drive is deterministic up to the kill. *)
let stream_armed_round st r site ~hits reference =
  with_tree_dir (fun dir ->
      let cfg = stream_cfg () in
      let range =
        match site with
        | "stream.append" | "stream.fsync" -> 40
        | "mcmc.step" -> 550
        | "epoch.append" | "epoch.fsync" | "epoch.compact" | "epoch.reset" -> 5
        | "wal.append" | "wal.fsync" | "wal.replay" -> 12
        | "wal.compact" | "wal.reset" -> 2
        | _ -> 12 (* atomic.*: fire on every durable write *)
      in
      let low = if site = "mcmc.step" then min 50 hits else 1 in
      let after = low + Random.State.int st (max 1 (min range hits - low + 1)) in
      Fault.arm ~site ~after;
      let sup, killed = stream_drive cfg dir in
      Fault.disarm ();
      (* Read the final state through a fresh open: recovery of the
         recovered state must be the identity. *)
      Sup.close sup;
      let sup', _ = Sup.open_dir ~config:cfg dir in
      let name = Printf.sprintf "stream round %d [%s after %d of %d]" r site after hits in
      check (name ^ ": fault fired") killed;
      check_stream_state name reference (stream_state sup');
      Sup.close sup';
      Printf.printf "%s: %s — stream bit-identical\n%!" name
        (if killed then "killed and recovered" else "fault never fired (clean finish)"))

let stream_corrupt_round st r reference =
  with_tree_dir (fun dir ->
      let cfg = stream_cfg () in
      let sup = ref (fst (Sup.open_dir ~config:cfg dir)) in
      let phases = Lazy.force stream_phases in
      (* Two clean epochs with a restart between them (so the budget
         ledger, which snapshots on open, has two generations), then a
         kill mid-walk in the third. *)
      List.iteri
        (fun i phase ->
          if i = 1 then begin
            Sup.close !sup;
            sup := fst (Sup.open_dir ~config:cfg dir)
          end;
          List.iter (fun e -> ignore (Sup.submit !sup e)) phase;
          if i < 2 then ignore (Sup.tick !sup))
        phases;
      Fault.arm ~site:"mcmc.step" ~after:(50 + Random.State.int st 200);
      (match Sup.tick !sup with
      | exception Fault.Injected _ -> ()
      | _ -> check (Printf.sprintf "stream corrupt round %d: kill fired" r) false);
      Fault.disarm ();
      (* Bit rot while the process is down.  Every fit checkpoint is fair
         game — even all of them, since the epoch re-derives
         deterministically from its measurement — but each journal keeps
         at least one valid snapshot generation (recovery falls back past
         the corrupt ones and replays the retained records). *)
      let corrupt_subset ~strict dirpath =
        if Sys.file_exists dirpath then begin
          let gens =
            Sys.readdir dirpath |> Array.to_list
            |> List.filter (fun n -> Filename.check_suffix n ".wpq")
            |> List.map (Filename.concat dirpath)
          in
          let n_gens = List.length gens in
          let n =
            if strict then if n_gens <= 1 then 0 else Random.State.int st n_gens
            else Random.State.int st (n_gens + 1)
          in
          List.iteri
            (fun i path ->
              if i < n then
                let size = max 1 (Unix.stat path).Unix.st_size in
                Fault.corrupt ~path (random_corruption st size))
            gens;
          n
        end
        else 0
      in
      let n_fit = corrupt_subset ~strict:false (Filename.concat dir "fit-2") in
      let n_epochs = corrupt_subset ~strict:true (Filename.concat dir "epochs") in
      let n_events = corrupt_subset ~strict:true (Filename.concat dir "events") in
      let n_budget = corrupt_subset ~strict:true (Filename.concat dir "budget") in
      let sup', _ = Sup.open_dir ~config:cfg dir in
      ignore (Sup.tick sup');
      let name =
        Printf.sprintf
          "stream corrupt round %d (%d fit, %d epoch, %d event, %d budget snapshots)" r n_fit
          n_epochs n_events n_budget
      in
      check_stream_state name reference (stream_state sup');
      Sup.close sup';
      Printf.printf "%s — stream bit-identical\n%!" name)

let stream_sites =
  [
    "stream.append";
    "stream.fsync";
    "epoch.append";
    "epoch.fsync";
    "epoch.compact";
    "epoch.reset";
    "wal.append";
    "wal.fsync";
    "wal.compact";
    "wal.reset";
    "wal.replay";
    "mcmc.step";
    "atomic.write";
    "atomic.rename";
  ]

let stream_matrix st ~rounds =
  let reference = stream_reference () in
  List.iteri
    (fun i site ->
      let hits = stream_hits site in
      check (Printf.sprintf "%s: passed in a clean stream" site) (hits > 0);
      for k = 1 to rounds do
        stream_armed_round st ((i * rounds) + k) site ~hits reference
      done)
    stream_sites;
  for r = 1 to rounds do
    stream_corrupt_round st r reference
  done

let () =
  let seed = ref 1 and rounds = ref 5 in
  let ledger_only = ref false and mcmc_only = ref false and stream_only = ref false in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N  master seed for the randomized matrix (default 1)");
      ("--rounds", Arg.Set_int rounds, "N  kill/corrupt rounds to run (default 5)");
      ("--ledger-only", Arg.Set ledger_only, "  run only the budget-ledger arm");
      ("--mcmc-only", Arg.Set mcmc_only, "  run only the synthesis-checkpoint arm");
      ("--stream-only", Arg.Set stream_only, "  run only the continual-observation arm");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fault_matrix [--seed N] [--rounds N] [--ledger-only | --mcmc-only | --stream-only]";
  let st = Random.State.make [| !seed |] in
  if !stream_only then stream_matrix st ~rounds:!rounds
  else begin
    if not !ledger_only then begin
      let reference =
        with_store_dir (fun dir -> synthesize (Persist.Store.open_dir ~keep dir))
      in
      for r = 1 to !rounds do
        check_result r reference (round st r)
      done;
      check_result (!rounds + 1) reference
        (multicore_round ~max_consumed:2 ~label:"jobs=2 fixed" st (!rounds + 1));
      check_result (!rounds + 2) reference
        (multicore_round ~width:(Mcmc.Fixed 4) ~max_consumed:4 ~label:"jobs=2 fixed4" st
           (!rounds + 2))
    end;
    if not !mcmc_only then ledger_matrix st ~rounds:!rounds;
    if not !ledger_only && not !mcmc_only then stream_matrix st ~rounds:!rounds
  end;
  if !failures > 0 then begin
    Printf.eprintf "%d failure(s) across the matrix\n%!" !failures;
    exit 1
  end;
  Printf.printf "full matrix clean (seed %d)%s%s%s\n%!" !seed
    (if !ledger_only || !stream_only then ""
     else
       Printf.sprintf
         ": %d synthesis rounds (plus 2 multicore: fixed 2 + fixed 4) bit-identical"
         !rounds)
    (if !mcmc_only || !stream_only then ""
     else
       Printf.sprintf "; %d ledger arm-point rounds, zero overspend at every site"
         ((List.length ledger_sites * !rounds) + !rounds + max 1 (!rounds / 2)))
    (if !ledger_only || !mcmc_only then ""
     else
       Printf.sprintf
         "; %d stream rounds bit-identical mid-stream, zero overspend"
         ((List.length stream_sites * !rounds) + !rounds))
