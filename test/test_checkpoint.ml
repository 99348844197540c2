(* Fault-injection harness for the checkpoint/resume runtime: kill the fit
   at arbitrary steps, resume from the latest snapshot, and demand the final
   result be bit-identical to the uninterrupted run. *)

module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Persist = Wpinq_persist.Persist
module Fault = Persist.Fault
module W = Wpinq_infer.Workflow
module Mcmc = Wpinq_infer.Mcmc
module Shutdown = Wpinq_infer.Shutdown

let steps = 2000
let every = 400
let trace_every = 500
let secret () = Gen.clustered ~n:40 ~community:8 ~p_in:0.7 ~extra:20 (Prng.create 5)

let with_ckpt f =
  let path = Filename.temp_file "wpinq_ckpt" ".wpinq" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Shutdown.reset ();
      if Sys.file_exists path then Sys.remove path;
      ignore (Persist.Atomic.sweep_stale ~path ()))
    (fun () -> f path)

let with_store_dir f =
  let dir = Filename.temp_file "wpinq_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Shutdown.reset ();
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let run_checkpointed ?stop ?deadline path =
  W.synthesize ~steps ~trace_every ~pow:100.0
    ~checkpoint:{ W.every; sink = W.Single path }
    ?stop ?deadline ~rng:(Prng.create 123) ~epsilon:0.5 ~query:(Some W.Tbi)
    ~secret:(secret ()) ()

let run_checkpointed_store ?stop ?deadline store =
  W.synthesize ~steps ~trace_every ~pow:100.0
    ~checkpoint:{ W.every; sink = W.Store store }
    ?stop ?deadline ~rng:(Prng.create 123) ~epsilon:0.5 ~query:(Some W.Tbi)
    ~secret:(secret ()) ()

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Bit-exact equality of everything a run returns: graphs, counters,
   energies, trace, spent budget. *)
let check_result name (expect : W.result) (got : W.result) =
  Alcotest.(check (list (pair int int)))
    (name ^ ": synthetic edges")
    (Graph.edges expect.W.synthetic)
    (Graph.edges got.W.synthetic);
  Alcotest.(check (list (pair int int)))
    (name ^ ": seed edges")
    (Graph.edges expect.W.seed) (Graph.edges got.W.seed);
  let es = expect.W.stats and gs = got.W.stats in
  Alcotest.(check int) (name ^ ": steps") es.Mcmc.steps gs.Mcmc.steps;
  Alcotest.(check int) (name ^ ": accepted") es.Mcmc.accepted gs.Mcmc.accepted;
  Alcotest.(check int) (name ^ ": invalid") es.Mcmc.invalid gs.Mcmc.invalid;
  Alcotest.(check int)
    (name ^ ": refreshed_on_nonfinite")
    es.Mcmc.refreshed_on_nonfinite gs.Mcmc.refreshed_on_nonfinite;
  check_bits (name ^ ": initial energy") es.Mcmc.initial_energy gs.Mcmc.initial_energy;
  check_bits (name ^ ": final energy") es.Mcmc.final_energy gs.Mcmc.final_energy;
  Alcotest.(check int) (name ^ ": trace length") (List.length expect.W.trace)
    (List.length got.W.trace);
  List.iter2
    (fun (e : W.trace_point) (g : W.trace_point) ->
      Alcotest.(check int) (name ^ ": trace step") e.W.step g.W.step;
      Alcotest.(check int) (name ^ ": trace triangles") e.W.triangles g.W.triangles;
      check_bits (name ^ ": trace assortativity") e.W.assortativity g.W.assortativity;
      check_bits (name ^ ": trace energy") e.W.energy g.W.energy)
    expect.W.trace got.W.trace;
  check_bits (name ^ ": total epsilon") expect.W.total_epsilon got.W.total_epsilon

let reference = lazy (with_ckpt (fun path -> run_checkpointed path))

let test_kill_and_resume kill () =
  let expect = Lazy.force reference in
  with_ckpt (fun path ->
      Fault.arm ~site:"mcmc.step" ~after:kill;
      (match run_checkpointed path with
      | exception Fault.Injected "mcmc.step" -> ()
      | _ -> Alcotest.failf "kill at %d did not fire" kill);
      (* The run died at step [kill]; its latest snapshot holds the largest
         multiple of [every] below that. *)
      Alcotest.(check int)
        "snapshot step"
        ((kill - 1) / every * every)
        (W.checkpoint_step path);
      let got = W.resume ~path () in
      check_result (Printf.sprintf "kill@%d" kill) expect got)

let test_double_kill () =
  (* Crash, resume, crash again mid-resume, resume again. *)
  let expect = Lazy.force reference in
  with_ckpt (fun path ->
      Fault.arm ~site:"mcmc.step" ~after:900;
      (match run_checkpointed path with
      | exception Fault.Injected _ -> ()
      | _ -> Alcotest.fail "first kill did not fire");
      (* The resumed chain re-runs steps 801..: kill it 300 steps in. *)
      Fault.arm ~site:"mcmc.step" ~after:300;
      (match W.resume ~path () with
      | exception Fault.Injected _ -> ()
      | _ -> Alcotest.fail "second kill did not fire");
      let got = W.resume ~path () in
      check_result "double kill" expect got)

let test_corrupt_checkpoint_detected () =
  with_ckpt (fun path ->
      Fault.arm ~site:"mcmc.step" ~after:600;
      (match run_checkpointed path with
      | exception Fault.Injected _ -> ()
      | _ -> Alcotest.fail "kill did not fire");
      let ic = open_in_bin path in
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* Flip one payload byte; resume must refuse with a typed error. *)
      let corrupt = Bytes.of_string raw in
      let i = Bytes.length corrupt - 7 in
      Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc corrupt;
      close_out oc;
      match W.resume ~path () with
      | exception W.Corrupt_checkpoint _ -> ()
      | _ -> Alcotest.fail "corrupt checkpoint accepted")

(* Version 8 stores each measurement's support apart from its lazy draws;
   a version 7 payload would decode its draws as support.  A snapshot
   carrying the old version number must be refused, not mis-decoded. *)
let test_old_version_refused () =
  with_ckpt (fun path ->
      Fault.arm ~site:"mcmc.step" ~after:600;
      (match run_checkpointed path with
      | exception Fault.Injected _ -> ()
      | _ -> Alcotest.fail "kill did not fire");
      let magic = "wpinq-checkpoint\n" in
      let payload =
        match Persist.File.load ~path ~magic ~version:9 with
        | Ok p -> p
        | Error e -> Alcotest.failf "v9 snapshot unreadable: %s" (Persist.File.error_to_string e)
      in
      Persist.File.save ~path ~magic ~version:8 payload;
      match W.resume ~path () with
      | exception W.Corrupt_checkpoint msg ->
          Alcotest.(check bool)
            ("names the version: " ^ msg)
            true
            (Test_audit.contains msg "version 8")
      | _ -> Alcotest.fail "version 8 checkpoint accepted")

let test_interrupted_checkpoint_write () =
  (* A crash during the *second* snapshot write must leave the first one
     valid, and resuming from it must still reproduce the reference. *)
  let expect = Lazy.force reference in
  with_ckpt (fun path ->
      Fault.arm ~site:"atomic.rename" ~after:2;
      (match run_checkpointed path with
      | exception Fault.Injected "atomic.rename" -> ()
      | _ -> Alcotest.fail "rename fault did not fire");
      Alcotest.(check int) "previous snapshot intact" every (W.checkpoint_step path);
      let got = W.resume ~path () in
      check_result "interrupted snapshot write" expect got)

(* ---- generational store sink ---- *)

let test_store_sink_matches_single () =
  (* Checkpointing into a generational store instead of a single file must
     not perturb the walk: the snapshot bytes are identical. *)
  let expect = Lazy.force reference in
  with_store_dir (fun dir ->
      let store = Persist.Store.open_dir ~keep:3 dir in
      let got = run_checkpointed_store store in
      check_result "store sink" expect got;
      (* Snapshots at 400/800/1200/1600, retention 3 → newest three remain. *)
      Alcotest.(check (list int))
        "generations retained" [ 1600; 1200; 800 ]
        (List.map fst (Persist.Store.generations store)))

let test_store_fallback_resumes_previous_generation () =
  (* Bit-flip the newest generation: resume_latest must quarantine it (to a
     preserved .corrupt file, not delete it), fall back to the previous
     generation, and still reproduce the reference bit-for-bit. *)
  let expect = Lazy.force reference in
  with_store_dir (fun dir ->
      let store = Persist.Store.open_dir ~keep:3 dir in
      let killed =
        Fault.arm ~site:"mcmc.step" ~after:1999;
        match run_checkpointed_store store with
        | exception Fault.Injected _ -> true
        | _ -> false
      in
      Alcotest.(check bool) "kill fired" true killed;
      let newest =
        match Persist.Store.generations store with
        | (step, path) :: _ ->
            Alcotest.(check int) "newest generation" 1600 step;
            path
        | [] -> Alcotest.fail "no generations written"
      in
      let size = (Unix.stat newest).Unix.st_size in
      Fault.corrupt ~path:newest (Fault.Bit_flip (8 * (size - 1)));
      let logs = ref [] in
      let got = W.resume_latest ~log:(fun m -> logs := m :: !logs) ~store () in
      check_result "fallback resume" expect got;
      Alcotest.(check bool) "corrupt generation quarantined, not deleted" true
        (Sys.file_exists (newest ^ ".corrupt"));
      Alcotest.(check bool) "rejection was logged" true
        (List.exists
           (fun m ->
             String.length m > 0
             && String.starts_with ~prefix:"rejected checkpoint generation" m)
           !logs))

let test_store_all_corrupt_raises () =
  with_store_dir (fun dir ->
      let store = Persist.Store.open_dir ~keep:3 dir in
      Fault.arm ~site:"mcmc.step" ~after:900;
      (match run_checkpointed_store store with
      | exception Fault.Injected _ -> ()
      | _ -> Alcotest.fail "kill did not fire");
      List.iter
        (fun (_, path) -> Fault.corrupt ~path (Fault.Truncate_at 5))
        (Persist.Store.generations store);
      match W.resume_latest ~store () with
      | exception W.Corrupt_checkpoint msg ->
          Alcotest.(check bool) "message names the store" true
            (String.length msg > 0);
          Alcotest.(check bool) "message lists the rejected generations" true
            (let contains hay needle =
               let nh = String.length hay and nn = String.length needle in
               let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
               go 0
             in
             contains msg "ckpt-400.wpq")
      | _ -> Alcotest.fail "all-corrupt store resumed")

(* ---- graceful shutdown ---- *)

let test_graceful_stop_cadence_aligned () =
  (* A stop observed exactly at a checkpoint boundary: the final snapshot
     re-encodes the state the last snapshot recorded, so resuming reproduces the
     uninterrupted reference bit-for-bit. *)
  let expect = Lazy.force reference in
  with_ckpt (fun path ->
      let flag = ref false in
      (* Iterations 1..1200 complete steps 1..1200; the 1201st pass over the
         signal point sets the flag, which the same iteration's stop check
         observes before starting step 1201. *)
      Fault.arm_action ~site:"mcmc.signal" ~after:1201 (fun () -> flag := true);
      let r = run_checkpointed ~stop:(fun () -> !flag) path in
      Alcotest.(check bool) "interrupted" true r.W.stats.Mcmc.interrupted;
      Alcotest.(check int) "stopped at the boundary" 1200 r.W.stats.Mcmc.steps;
      Alcotest.(check int) "final snapshot step" 1200 (W.checkpoint_step path);
      let got = W.resume ~path () in
      Alcotest.(check bool) "resumed run not interrupted" false
        got.W.stats.Mcmc.interrupted;
      check_result "graceful stop" expect got)

let test_sigterm_finishes_step_and_checkpoints () =
  (* A real SIGTERM, delivered mid-walk through the installed handler: the
     in-flight step finishes, a valid final snapshot is written, and resume
     completes the walk. *)
  with_ckpt (fun path ->
      Shutdown.reset ();
      Shutdown.install ();
      Fault.arm_action ~site:"mcmc.signal" ~after:900 (fun () ->
          Unix.kill (Unix.getpid ()) Sys.sigterm);
      let r = run_checkpointed ~stop:Shutdown.requested path in
      Alcotest.(check bool) "interrupted" true r.W.stats.Mcmc.interrupted;
      Alcotest.(check bool) "stopped promptly after delivery" true
        (r.W.stats.Mcmc.steps >= 899 && r.W.stats.Mcmc.steps < steps);
      (* The final snapshot records exactly the stopped state. *)
      Alcotest.(check int) "final snapshot step" r.W.stats.Mcmc.steps
        (W.checkpoint_step path);
      Shutdown.reset ();
      let got = W.resume ~path () in
      Alcotest.(check bool) "resumed run not interrupted" false
        got.W.stats.Mcmc.interrupted;
      Alcotest.(check int) "resume completed the walk" steps got.W.stats.Mcmc.steps)

let test_deadline_stops_gracefully () =
  with_ckpt (fun path ->
      let r = run_checkpointed ~deadline:0.0 path in
      Alcotest.(check bool) "interrupted" true r.W.stats.Mcmc.interrupted;
      Alcotest.(check bool) "stopped early" true (r.W.stats.Mcmc.steps < steps);
      Alcotest.(check int) "final snapshot step" r.W.stats.Mcmc.steps
        (W.checkpoint_step path);
      let got = W.resume ~path () in
      Alcotest.(check bool) "resumed run not interrupted" false
        got.W.stats.Mcmc.interrupted;
      Alcotest.(check int) "resume completed the walk" steps got.W.stats.Mcmc.steps)

let suite =
  [
    Alcotest.test_case "kill just after first snapshot" `Slow (test_kill_and_resume 401);
    Alcotest.test_case "kill at snapshot boundary" `Slow (test_kill_and_resume 800);
    Alcotest.test_case "kill near the end" `Slow (test_kill_and_resume 1999);
    Alcotest.test_case "kill twice, resume twice" `Slow test_double_kill;
    Alcotest.test_case "corrupt checkpoint detected" `Slow test_corrupt_checkpoint_detected;
    Alcotest.test_case "interrupted snapshot write" `Slow test_interrupted_checkpoint_write;
    Alcotest.test_case "version 8 checkpoint refused" `Slow test_old_version_refused;
    Alcotest.test_case "store sink matches single-file run" `Slow
      test_store_sink_matches_single;
    Alcotest.test_case "store falls back past corrupt newest" `Slow
      test_store_fallback_resumes_previous_generation;
    Alcotest.test_case "store with all generations corrupt" `Slow
      test_store_all_corrupt_raises;
    Alcotest.test_case "graceful stop at cadence boundary" `Slow
      test_graceful_stop_cadence_aligned;
    Alcotest.test_case "SIGTERM finishes step and checkpoints" `Slow
      test_sigterm_finishes_step_and_checkpoints;
    Alcotest.test_case "deadline stops gracefully" `Slow test_deadline_stops_gracefully;
  ]
