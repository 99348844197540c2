(* Continual-observation driver: a crash-safe streaming wPINQ pipeline.

   Opens (or recovers) a supervisor directory, seeds a synthetic secret
   graph as durable arrival events on first run, then drives re-release
   epochs under a per-epoch ε schedule — each epoch warm-started from the
   previous release — submitting deterministic churn between epochs.  A
   first Ctrl-C drains (the in-flight epoch finishes and the loop stops);
   a second interrupts the walk itself, leaving the epoch durable and
   resumable: re-running the same command continues bit-identically.

   Exit status: 0 clean; 1 if the budget ledger under DIR/budget shows any
   overspend — so CI can gate on the invariant. *)

open Cmdliner
module Sup = Wpinq_stream.Supervisor
module Event = Wpinq_stream.Event
module Policy = Wpinq_stream.Policy
module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Shutdown = Wpinq_infer.Shutdown

let seed_base sup ~nodes ~seed =
  let g =
    Gen.clustered ~n:nodes
      ~community:(max 2 (nodes / 6))
      ~p_in:0.8 ~extra:(nodes / 2) (Prng.create seed)
  in
  List.iter
    (fun (u, v) ->
      ignore (Sup.submit sup (Event.make ~time:(float (Sup.head sup + 1)) ~op:Event.Arrive ~u ~v)))
    (Graph.edges g);
  Printf.printf "seeded %d base arrivals (clustered secret on %d nodes)\n%!" (Sup.head sup)
    nodes

(* Deterministic churn keyed on the ingest head: a resumed process that
   already submitted this batch regenerates and re-applies the same
   no-op-safe events, never a diverging stream. *)
let submit_churn sup ~nodes ~seed ~churn =
  let rng = Prng.split_nth (Prng.create (seed + 7919)) (Sup.head sup) in
  let current = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace current e ()) (Sup.protected_edges sup);
  let submitted = ref 0 in
  while !submitted < churn do
    let u = Prng.int rng nodes and v = Prng.int rng nodes in
    if u <> v then begin
      let u, v = if u < v then (u, v) else (v, u) in
      let op = if Hashtbl.mem current (u, v) then Event.Depart else Event.Arrive in
      (match op with
      | Event.Depart -> Hashtbl.remove current (u, v)
      | Event.Arrive -> Hashtbl.replace current (u, v) ());
      ignore (Sup.submit sup (Event.make ~time:(float (Sup.head sup + 1)) ~op ~u ~v));
      incr submitted
    end
  done;
  Printf.printf "submitted %d churn events (head %d)\n%!" churn (Sup.head sup)

let run dir epochs cadence per_epoch schedule_epochs policy steps pow deadline retries
    backoff seed nodes churn no_fsync jobs =
  match Policy.degrade_of_string policy with
  | None ->
      Printf.eprintf "unknown policy %S (expected roll-forward or forfeit)\n" policy;
      2
  | Some policy ->
      Shutdown.install ();
      let cfg =
        Sup.config ~steps ~pow ~jobs ~retries ~backoff ~deadline ~per_epoch
          ~epochs:schedule_epochs ~policy ~fsync:(not no_fsync) ~seed ()
      in
      let sup, recovery = Sup.open_dir ~config:cfg dir in
      if
        recovery.Sup.torn_bytes > 0
        || recovery.Sup.replayed_events > 0
        || recovery.Sup.replayed_records > 0
        || recovery.Sup.resumed_epoch <> None
      then
        Printf.printf "recovery: %d torn bytes trimmed, %d events + %d records replayed%s\n%!"
          recovery.Sup.torn_bytes recovery.Sup.replayed_events recovery.Sup.replayed_records
          (match recovery.Sup.resumed_epoch with
          | Some e -> Printf.sprintf ", epoch %d in flight" e
          | None -> "");
      if Sup.head sup = 0 then seed_base sup ~nodes ~seed;
      let interrupted = ref false in
      let rec loop k =
        if k > 0 && not (Shutdown.requested ()) then begin
          if Sup.consumed sup > 0 && Sup.pending sup < churn then
            submit_churn sup ~nodes ~seed ~churn;
          match Sup.tick sup with
          | None ->
              interrupted := true;
              print_endline "interrupted: epoch remains in flight, durable and resumable"
          | Some o ->
              Printf.printf "%s\n%!" (Sup.outcome_to_string o);
              if cadence > 0.0 && k > 1 && not (Shutdown.requested ()) then
                Unix.sleepf cadence;
              loop (k - 1)
        end
      in
      loop epochs;
      let b = Sup.books sup in
      let overspend = Sup.overspend sup in
      Printf.printf
        "books: granted %.4f, spent %.4f, carried %.4f, forfeited %.4f, outstanding %.4f\n"
        b.Sup.granted b.Sup.spent b.Sup.carried b.Sup.forfeited b.Sup.outstanding;
      Printf.printf "stream: %d acknowledged, %d committed, %d pending%s\n" (Sup.head sup)
        (Sup.consumed sup) (Sup.pending sup)
        (if !interrupted then " (one epoch in flight)" else "");
      Printf.printf "overspend: %.9g\n%!" overspend;
      Sup.close sup;
      if overspend > 0.0 then 1 else 0

let cmd =
  let doc = "drive a crash-safe continual-observation wPINQ release stream" in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir"; "d" ] ~docv:"DIR"
          ~doc:
            "Supervisor directory (event and epoch journals, budget ledger, fit checkpoints). \
             Created if missing; an existing one is recovered and continued.")
  in
  let epochs =
    Arg.(
      value & opt int 4
      & info [ "epochs" ] ~docv:"N" ~doc:"Epochs to run in this invocation.")
  in
  let cadence =
    Arg.(
      value & opt float 0.0
      & info [ "cadence" ] ~docv:"SECONDS" ~doc:"Sleep between epochs.")
  in
  let per_epoch =
    Arg.(
      value & opt float 2.0
      & info [ "per-epoch" ] ~docv:"EPS" ~doc:"Fresh ε granted to each epoch.")
  in
  let schedule_epochs =
    Arg.(
      value & opt int 8
      & info [ "schedule-epochs" ] ~docv:"N"
          ~doc:"Lifetime grant cap: epochs beyond this get a typed refusal.")
  in
  let policy =
    Arg.(
      value & opt string "roll-forward"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Unspent-ε policy for degraded epochs: roll-forward or forfeit.")
  in
  let steps =
    Arg.(
      value & opt int 2000
      & info [ "steps" ] ~docv:"N" ~doc:"MCMC steps per epoch.")
  in
  let pow =
    Arg.(
      value & opt float 100.0 & info [ "pow" ] ~docv:"POW" ~doc:"Metropolis sharpness.")
  in
  let deadline =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-epoch wall-clock deadline; a late epoch degrades. 0 disables.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N" ~doc:"Retries per epoch on transient failures.")
  in
  let backoff =
    Arg.(
      value & opt float 0.1
      & info [ "backoff" ] ~docv:"SECONDS" ~doc:"Base retry backoff (doubles per retry).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master PRNG seed.")
  in
  let nodes =
    Arg.(
      value & opt int 48
      & info [ "nodes" ] ~docv:"N" ~doc:"Vertices in the synthetic secret graph.")
  in
  let churn =
    Arg.(
      value & opt int 6
      & info [ "churn" ] ~docv:"N" ~doc:"Arrival/departure events submitted per epoch.")
  in
  let no_fsync =
    Arg.(
      value & flag
      & info [ "no-fsync" ]
          ~doc:
            "Skip the fsync on each journal append (benchmarking only: an acknowledged \
             event may not survive a power loss).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains for the speculative walk.")
  in
  Cmd.v
    (Cmd.info "wpinq-stream" ~doc)
    Term.(
      const run $ dir $ epochs $ cadence $ per_epoch $ schedule_epochs $ policy $ steps
      $ pow $ deadline $ retries $ backoff $ seed $ nodes $ churn $ no_fsync $ jobs)

let () = exit (Cmd.eval' cmd)
