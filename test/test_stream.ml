(* The continual-observation pipeline: durable ingestion, epoch scheduling
   with typed refusal and graceful degradation, warm-started re-synthesis,
   and bit-identical kill/resume of the whole supervisor. *)

module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Io = Wpinq_graph.Io
module Persist = Wpinq_persist.Persist
module Journal = Wpinq_persist.Journal
module Fault = Persist.Fault
module Ledger = Wpinq_service.Ledger
module W = Wpinq_infer.Workflow
module Shutdown = Wpinq_infer.Shutdown
module Event = Wpinq_stream.Event
module Ingest = Wpinq_stream.Ingest
module Policy = Wpinq_stream.Policy
module Sup = Wpinq_stream.Supervisor

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_file "wpinq_stream" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Shutdown.reset ();
      remove_tree dir)
    (fun () -> f dir)

let check_close ?(tol = 1e-9) what expected actual =
  Alcotest.(check (float tol)) what expected actual

(* ---- events ---- *)

let test_event_codec () =
  let e = Event.make ~time:3.5 ~op:Event.Arrive ~u:7 ~v:2 in
  Alcotest.(check (pair int int)) "normalized" (2, 7) (e.Event.u, e.Event.v);
  let seq, e' = Event.decode (Event.encode ~seq:42 e) in
  Alcotest.(check int) "seq round-trips" 42 seq;
  Alcotest.(check bool) "event round-trips" true (e = e');
  (match Event.make ~time:0.0 ~op:Event.Arrive ~u:3 ~v:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self-loop accepted");
  (match Event.make ~time:Float.nan ~op:Event.Depart ~u:0 ~v:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN timestamp accepted");
  match Event.decode "garbage" with
  | exception Persist.Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "garbage payload decoded"

(* ---- ingest journal ---- *)

let ev ?(op = Event.Arrive) t u v = Event.make ~time:(float_of_int t) ~op ~u ~v

let test_ingest_roundtrip () =
  with_temp_dir (fun dir ->
      let j, rec0 = Ingest.open_dir dir in
      Alcotest.(check int) "fresh journal replays nothing" 0
        (List.length rec0.Ingest.replayed);
      let s1 = Ingest.append j (ev 1 0 1) in
      let s2 = Ingest.append j (ev 2 1 2) in
      let s3 = Ingest.append j (ev 3 0 1 ~op:Event.Depart) in
      Alcotest.(check (list int)) "seqs are contiguous" [ 1; 2; 3 ] [ s1; s2; s3 ];
      Ingest.close j;
      let j', recovery = Ingest.open_dir dir in
      Alcotest.(check int) "all acknowledged events replay" 3
        (List.length recovery.Ingest.replayed);
      Alcotest.(check int) "no torn bytes" 0 recovery.Ingest.torn_bytes;
      Alcotest.(check int) "head survives" 3 (Ingest.head j');
      Alcotest.(check bool) "event bytes survive" true
        (List.map snd recovery.Ingest.replayed
        = [ ev 1 0 1; ev 2 1 2; ev 3 0 1 ~op:Event.Depart ]);
      Ingest.close j')

let test_ingest_torn_tail () =
  with_temp_dir (fun dir ->
      let j, _ = Ingest.open_dir dir in
      ignore (Ingest.append j (ev 1 0 1));
      ignore (Ingest.append j (ev 2 1 2));
      Ingest.close j;
      (* A crash mid-append: garbage after the last whole record. *)
      let path = Filename.concat dir "wal.log" in
      let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
      output_string oc "\x09\x00\x00\x00\x00\x00\x00\x00torn";
      close_out oc;
      let j', recovery = Ingest.open_dir dir in
      Alcotest.(check bool) "torn tail detected" true (recovery.Ingest.torn_bytes > 0);
      Alcotest.(check int) "acknowledged events survive" 2
        (List.length recovery.Ingest.replayed);
      (* The tail was trimmed: appending after recovery lands cleanly. *)
      ignore (Ingest.append j' (ev 3 2 3));
      Ingest.close j';
      let j'', recovery' = Ingest.open_dir dir in
      Alcotest.(check int) "clean after trim" 0 recovery'.Ingest.torn_bytes;
      Alcotest.(check int) "post-trim append survives" 3 (Ingest.head j'');
      Ingest.close j'')

let test_ingest_compaction () =
  with_temp_dir (fun dir ->
      let j, _ = Ingest.open_dir dir in
      for i = 1 to 6 do
        ignore (Ingest.append j (ev i (i - 1) i))
      done;
      (* Commit the first four: the secret is then the path 0-1-2-3-4. *)
      let edges = [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
      Ingest.compact j ~upto:4 ~edges;
      Alcotest.(check (pair int (list (pair int int)))) "base recorded" (4, edges)
        (Ingest.base j);
      Alcotest.(check int) "uncommitted events remain" 2
        (List.length (Ingest.events_after j 4));
      Ingest.close j;
      let j', recovery = Ingest.open_dir dir in
      Alcotest.(check (pair int (list (pair int int)))) "base survives reopen" (4, edges)
        (Ingest.base j');
      Alcotest.(check int) "uncommitted events replay" 2
        (List.length recovery.Ingest.replayed);
      Alcotest.(check int) "head survives compaction" 6 (Ingest.head j');
      Ingest.close j')

(* ---- the epoch books in the ledger ---- *)

let ok what = function
  | Ok v -> v
  | Error r -> Alcotest.failf "%s refused: %s" what (Ledger.refusal_to_string r)

(* One epoch booked as the supervisor books it: a child of the "stream"
   root funded with the allowance, an escrow committed for what was
   released (or released when nothing was), the child retired. *)
let book_epoch l ~epoch ~allowance ~spent =
  let tenant = Printf.sprintf "epoch-%d" epoch in
  ok "grant" (Ledger.delegate l ~parent:"stream" ~tenant ~allocated:allowance);
  let cost = if spent > 0.0 then spent else allowance in
  let id = ok "escrow" (Ledger.escrow l ~tenant ~cost ~label:"measurements") in
  ok "settle" (if spent > 0.0 then Ledger.commit l id else Ledger.release l id);
  ok "retire" (Ledger.retire l ~tenant)

let check_allowance what expected got =
  match got with
  | Some a -> check_close what expected a
  | None -> Alcotest.failf "%s: refused" what

let test_epoch_ledger_arithmetic () =
  let l = Ledger.create_in_memory () in
  ok "root" (Ledger.create_root l ~tenant:"stream" ~allocated:3.0);
  let next () = Sup.next_allowance l ~per_epoch:1.0 ~epochs:3 ~policy:Policy.Roll_forward in
  check_allowance "first allowance" 1.0 (next ());
  book_epoch l ~epoch:0 ~allowance:1.0 ~spent:0.75;
  (* Roll-forward: the unspent quarter joins the next grant. *)
  check_allowance "carried allowance" 1.25 (next ());
  book_epoch l ~epoch:1 ~allowance:1.25 ~spent:0.0;
  check_allowance "degraded epoch rolls everything" 2.25 (next ());
  book_epoch l ~epoch:2 ~allowance:2.25 ~spent:2.25;
  Alcotest.(check bool) "three children exhaust the grants" true (next () = None);
  let b = Sup.books_of l ~per_epoch:1.0 ~policy:Policy.Roll_forward in
  check_close "granted = 3 fresh epochs" 3.0 b.Sup.granted;
  check_close "all spent" 3.0 b.Sup.spent;
  check_close "nothing left carried" 0.0 b.Sup.carried;
  check_close "nothing forfeited" 0.0 b.Sup.forfeited;
  check_close "nothing outstanding" 0.0 b.Sup.outstanding;
  Alcotest.(check int) "overspend is zero" 0 (List.length (Ledger.overspend l))

let test_epoch_ledger_forfeit () =
  let l = Ledger.create_in_memory () in
  ok "root" (Ledger.create_root l ~tenant:"stream" ~allocated:2.0);
  let next () = Sup.next_allowance l ~per_epoch:1.0 ~epochs:2 ~policy:Policy.Forfeit in
  check_allowance "first allowance" 1.0 (next ());
  book_epoch l ~epoch:0 ~allowance:1.0 ~spent:0.25;
  check_allowance "forfeit carries nothing" 1.0 (next ());
  book_epoch l ~epoch:1 ~allowance:1.0 ~spent:1.0;
  let b = Sup.books_of l ~per_epoch:1.0 ~policy:Policy.Forfeit in
  check_close "unspent was destroyed" 0.75 b.Sup.forfeited;
  check_close "nothing carried" 0.0 b.Sup.carried;
  Alcotest.(check int) "overspend still zero" 0 (List.length (Ledger.overspend l))

let test_epoch_ledger_guards () =
  let l = Ledger.create_in_memory () in
  ok "root" (Ledger.create_root l ~tenant:"stream" ~allocated:2.0);
  ok "grant" (Ledger.delegate l ~parent:"stream" ~tenant:"epoch-0" ~allocated:1.0);
  (* A second grant of the same epoch is refused: the child is its key. *)
  (match Ledger.delegate l ~parent:"stream" ~tenant:"epoch-0" ~allocated:1.0 with
  | Error (Ledger.Duplicate_tenant _) -> ()
  | _ -> Alcotest.fail "double grant accepted");
  (* A grant beyond what the root still holds is refused. *)
  (match Ledger.delegate l ~parent:"stream" ~tenant:"epoch-1" ~allocated:1.5 with
  | Error (Ledger.Insufficient_budget _) -> ()
  | _ -> Alcotest.fail "grant beyond the root accepted");
  (* Escrow over the allowance is refused: the child is the spend cap. *)
  (match Ledger.escrow l ~tenant:"epoch-0" ~cost:1.5 ~label:"measurements" with
  | Error (Ledger.Insufficient_budget _) -> ()
  | _ -> Alcotest.fail "overspend accepted");
  let id = ok "escrow" (Ledger.escrow l ~tenant:"epoch-0" ~cost:0.5 ~label:"measurements") in
  ok "commit" (Ledger.commit l id);
  ok "retire" (Ledger.retire l ~tenant:"epoch-0")

let test_epoch_ledger_reopen () =
  with_temp_dir (fun dir ->
      let l, _ = Ledger.open_dir dir in
      ok "root" (Ledger.create_root l ~tenant:"stream" ~allocated:2.0);
      book_epoch l ~epoch:0 ~allowance:0.5 ~spent:0.25;
      book_epoch l ~epoch:1 ~allowance:0.5 ~spent:0.0;
      let books = Sup.books_of l ~per_epoch:0.5 ~policy:Policy.Forfeit in
      let next = Sup.next_allowance l ~per_epoch:0.5 ~epochs:4 ~policy:Policy.Forfeit in
      Ledger.close l;
      let l', recovery = Ledger.open_dir dir in
      Alcotest.(check int) "nothing in doubt" 0 recovery.Ledger.charged_on_doubt;
      Alcotest.(check bool) "books survive reopen" true
        (Sup.books_of l' ~per_epoch:0.5 ~policy:Policy.Forfeit = books);
      Alcotest.(check bool) "the next grant survives reopen" true
        (Sup.next_allowance l' ~per_epoch:0.5 ~epochs:4 ~policy:Policy.Forfeit = next);
      check_close "forfeits booked" 0.75 books.Sup.forfeited;
      Ledger.close l')

(* ---- supervisor ---- *)

(* A small evolving secret: arrivals building a clustered graph, then a
   few arrivals/departures per epoch. *)
let base_graph = lazy (Wpinq_graph.Gen.clustered ~n:24 ~community:6 ~p_in:0.8 ~extra:10 (Prng.create 9))

let base_events () =
  List.mapi (fun i (u, v) -> ev (i + 1) u v) (Graph.edges (Lazy.force base_graph))

let delta_events ~from =
  (* Deterministic churn: drop two base edges, add three fresh ones. *)
  let base = Graph.edges (Lazy.force base_graph) in
  let drop = [ List.nth base 0; List.nth base 7 ] in
  let add = [ (0, 23); (3, 21); (5, 19) ] in
  List.mapi (fun i (u, v) -> ev (from + i) u v ~op:Event.Depart) drop
  @ List.mapi (fun i (u, v) -> ev (from + 10 + i) u v) add

let small_config ?(retries = 2) ?(policy = Policy.Roll_forward) ?(epochs = 4) () =
  Sup.config ~steps:300 ~pow:100.0 ~checkpoint_every:100 ~trace_every:100 ~fsync:false
    ~retries ~policy ~per_epoch:2.0 ~epochs ~seed:3 ()

let feed_all sup events = List.iter (fun e -> ignore (Sup.submit sup e)) events

let test_supervisor_epochs () =
  with_temp_dir (fun dir ->
      let sup, rec0 = Sup.open_dir ~config:(small_config ()) dir in
      Alcotest.(check (option int)) "fresh open resumes nothing" None
        rec0.Sup.resumed_epoch;
      feed_all sup (base_events ());
      let n_base = List.length (base_events ()) in
      (match Sup.tick sup with
      | Some (Sup.Completed c) ->
          Alcotest.(check int) "epoch 0" 0 c.epoch;
          Alcotest.(check int) "all events consumed" n_base c.events;
          check_close "allowance is the per-epoch grant" 2.0 c.allowance;
          Alcotest.(check bool) "budget was spent" true (c.spent > 0.0);
          Alcotest.(check bool) "spent within allowance" true (c.spent <= 2.0 +. 1e-9)
      | other ->
          Alcotest.failf "epoch 0 did not complete: %s"
            (match other with Some o -> Sup.outcome_to_string o | None -> "interrupted"));
      Alcotest.(check int) "nothing pending" 0 (Sup.pending sup);
      Alcotest.(check bool) "a synthetic graph was released" true
        (Sup.synthetic sup <> None);
      feed_all sup (delta_events ~from:1000);
      (match Sup.tick sup with
      | Some (Sup.Completed c) ->
          Alcotest.(check int) "epoch 1" 1 c.epoch;
          Alcotest.(check int) "churn consumed" 5 c.events
      | _ -> Alcotest.fail "epoch 1 did not complete");
      (* The live secret tracks the churn: departures removed, arrivals added. *)
      let edges = Sup.protected_edges sup in
      Alcotest.(check bool) "departed edge gone" false
        (List.mem (List.nth (Graph.edges (Lazy.force base_graph)) 0) edges);
      Alcotest.(check bool) "arrived edge present" true (List.mem (0, 23) edges);
      let released =
        List.fold_left
          (fun acc -> function Sup.Completed c -> acc +. c.Sup.spent | _ -> acc)
          0.0 (Sup.outcomes sup)
      in
      Alcotest.(check (float 0.0)) "the ledger books the fits' spend bit for bit" released
        (Sup.books sup).Sup.spent;
      check_close "no overspend" 0.0 (Sup.overspend sup);
      Sup.close sup)

(* Kill the supervisor mid-epoch at an armed fault site, reopen, re-tick:
   outcomes, released graphs, and books must be bit-identical to the
   uninterrupted reference. *)
let kill_resume_round ~site ~after () =
  let reference =
    with_temp_dir (fun dir ->
        let sup, _ = Sup.open_dir ~config:(small_config ()) dir in
        feed_all sup (base_events ());
        let o1 = Sup.tick sup in
        feed_all sup (delta_events ~from:1000);
        let o2 = Sup.tick sup in
        let out = (o1, o2, Option.map Graph.edges (Sup.synthetic sup), Sup.books sup) in
        Sup.close sup;
        out)
  in
  with_temp_dir (fun dir ->
      let cfg = small_config () in
      let sup, _ = Sup.open_dir ~config:cfg dir in
      feed_all sup (base_events ());
      Fault.arm ~site ~after;
      let o1 =
        match Sup.tick sup with
        | o -> Fault.disarm (); o
        | exception Fault.Injected _ ->
            Fault.disarm ();
            (* The process died: everything in memory is gone.  Reopen from
               the journals and run the tick again. *)
            let sup, _ = Sup.open_dir ~config:cfg dir in
            let o = Sup.tick sup in
            Sup.close sup;
            o
      in
      (* Reopen regardless, proving settled state also survives rest. *)
      let sup, _ = Sup.open_dir ~config:cfg dir in
      feed_all sup (delta_events ~from:1000);
      let o2 = Sup.tick sup in
      let got = (o1, o2, Option.map Graph.edges (Sup.synthetic sup), Sup.books sup) in
      Sup.close sup;
      Alcotest.(check bool)
        (Printf.sprintf "kill at %s[%d] is invisible" site after)
        true (got = reference))

let test_kill_resume_epoch_journal () = kill_resume_round ~site:"epoch.append" ~after:1 ()
let test_kill_resume_mcmc () = kill_resume_round ~site:"mcmc.step" ~after:150 ()
let test_kill_resume_checkpoint () = kill_resume_round ~site:"atomic.rename" ~after:2 ()

let test_chaos_retry_then_complete () =
  (* One transient failure, then success: the retry must re-derive the
     identical epoch (same noise, same walk) and only the retry counter
     may differ from an undisturbed run. *)
  let clean =
    with_temp_dir (fun dir ->
        let sup, _ = Sup.open_dir ~config:(small_config ()) dir in
        feed_all sup (base_events ());
        let o = Sup.tick sup in
        Sup.close sup;
        o)
  in
  with_temp_dir (fun dir ->
      let chaos ~epoch ~attempt =
        if epoch = 0 && attempt = 0 then Some "flaky disk" else None
      in
      let sup, _ = Sup.open_dir ~chaos ~config:(small_config ()) dir in
      feed_all sup (base_events ());
      (match (Sup.tick sup, clean) with
      | Some (Sup.Completed got), Some (Sup.Completed want) ->
          Alcotest.(check int) "one retry recorded" 1 got.Sup.retries;
          Alcotest.(check bool) "same epoch modulo the retry counter" true
            ({ got with Sup.retries = 0 } = want)
      | _ -> Alcotest.fail "retry did not complete the epoch");
      check_close "no overspend after retry" 0.0 (Sup.overspend sup);
      Sup.close sup)

let test_chaos_exhausted_degrades () =
  with_temp_dir (fun dir ->
      (* Epoch 0 fails every attempt; epoch 1 is healthy and inherits both
         the rolled-forward budget and the deferred events. *)
      let chaos ~epoch ~attempt:_ = if epoch = 0 then Some "dead disk" else None in
      let sup, _ = Sup.open_dir ~chaos ~config:(small_config ~retries:1 ()) dir in
      feed_all sup (base_events ());
      let n_base = List.length (base_events ()) in
      (match Sup.tick sup with
      | Some (Sup.Merged m) ->
          Alcotest.(check int) "epoch 0 merged" 0 m.Sup.m_epoch;
          Alcotest.(check int) "retries were attempted" 1 m.Sup.m_retries;
          check_close "nothing was released, nothing spent" 0.0 m.Sup.m_spent;
          check_close "full allowance rolls forward" 2.0 m.Sup.rolled;
          check_close "nothing forfeited" 0.0 m.Sup.forfeited;
          Alcotest.(check int) "events deferred, not lost" n_base m.Sup.deferred
      | _ -> Alcotest.fail "epoch 0 did not merge");
      Alcotest.(check int) "deferred events still pending" n_base (Sup.pending sup);
      (match Sup.tick sup with
      | Some (Sup.Completed c) ->
          Alcotest.(check int) "epoch 1 completed" 1 c.epoch;
          check_close "allowance includes the rolled grant" 4.0 c.allowance;
          Alcotest.(check int) "deferred events consumed" n_base c.events
      | _ -> Alcotest.fail "epoch 1 did not complete");
      Alcotest.(check int) "nothing pending after recovery" 0 (Sup.pending sup);
      check_close "no overspend through degradation" 0.0 (Sup.overspend sup);
      Sup.close sup)

let test_forfeit_policy () =
  with_temp_dir (fun dir ->
      let chaos ~epoch ~attempt:_ = if epoch = 0 then Some "dead disk" else None in
      let sup, _ =
        Sup.open_dir ~chaos ~config:(small_config ~retries:0 ~policy:Policy.Forfeit ()) dir
      in
      feed_all sup (base_events ());
      (match Sup.tick sup with
      | Some (Sup.Merged m) ->
          check_close "allowance forfeited" 2.0 m.Sup.forfeited;
          check_close "nothing rolled" 0.0 m.Sup.rolled
      | _ -> Alcotest.fail "epoch 0 did not merge");
      (match Sup.tick sup with
      | Some (Sup.Completed c) -> check_close "no carry under forfeit" 2.0 c.allowance
      | _ -> Alcotest.fail "epoch 1 did not complete");
      let b = Sup.books sup in
      check_close "books record the forfeit" 2.0 b.Sup.forfeited;
      check_close "no overspend" 0.0 (Sup.overspend sup);
      Sup.close sup)

(* A kill after the epoch's escrow but before its first durable fit
   snapshot: recovery charges the escrow on doubt, and when the epoch
   then degrades, that charge is its spend (nothing is refunded). *)
let test_doubt_charge_is_the_spend () =
  with_temp_dir (fun dir ->
      let cfg = small_config ~retries:0 () in
      let sup, _ = Sup.open_dir ~config:cfg dir in
      feed_all sup (base_events ());
      Fault.arm ~site:"atomic.write" ~after:1;
      (match Sup.tick sup with
      | exception Fault.Injected _ -> Fault.disarm ()
      | _ -> Alcotest.fail "the kill before the first fit snapshot did not fire");
      Alcotest.(check bool) "no durable fit snapshot" true
        (not (Sys.file_exists (Filename.concat dir "fit-0"))
        || Persist.Store.generations (Persist.Store.open_dir (Filename.concat dir "fit-0"))
           = []);
      let chaos ~epoch ~attempt:_ = if epoch = 0 then Some "dead disk" else None in
      let sup, recovery = Sup.open_dir ~chaos ~config:cfg dir in
      Alcotest.(check (option int)) "epoch 0 in flight" (Some 0) recovery.Sup.resumed_epoch;
      (match Sup.tick sup with
      | Some (Sup.Merged m) ->
          Alcotest.(check bool) "the doubt charge is spent" true (m.Sup.m_spent > 0.0);
          Alcotest.(check (float 0.0)) "books hold it" m.Sup.m_spent (Sup.books sup).Sup.spent;
          check_close "only the rest rolls" (2.0 -. m.Sup.m_spent) m.Sup.rolled
      | _ -> Alcotest.fail "epoch 0 did not merge");
      check_close "no overspend" 0.0 (Sup.overspend sup);
      Sup.close sup)

let test_refusal_when_exhausted () =
  with_temp_dir (fun dir ->
      let sup, _ = Sup.open_dir ~config:(small_config ~epochs:1 ()) dir in
      feed_all sup (base_events ());
      (match Sup.tick sup with
      | Some (Sup.Completed _) -> ()
      | _ -> Alcotest.fail "epoch 0 did not complete");
      feed_all sup (delta_events ~from:1000);
      (match Sup.tick sup with
      | Some (Sup.Refused r) ->
          Alcotest.(check int) "typed refusal for epoch 1" 1 r.Sup.r_epoch;
          Alcotest.(check int) "pending events reported" 5 r.Sup.r_deferred
      | _ -> Alcotest.fail "exhausted schedule did not refuse");
      (* Refusal spends nothing and survives reopen. *)
      let books = Sup.books sup in
      let outcomes = Sup.outcomes sup in
      Sup.close sup;
      let sup', _ = Sup.open_dir ~config:(small_config ~epochs:1 ()) dir in
      Alcotest.(check bool) "books survive the refusal" true (Sup.books sup' = books);
      Alcotest.(check int) "refusal journalled" 2 (List.length (Sup.outcomes sup'));
      Alcotest.(check bool) "outcomes survive reopen in order" true
        (Sup.outcomes sup' = outcomes);
      check_close "no overspend" 0.0 (Sup.overspend sup');
      Sup.close sup')

let test_warm_seed_respects_degrees () =
  let rng = Prng.create 11 in
  let previous = Wpinq_graph.Gen.clustered ~n:20 ~community:5 ~p_in:0.8 ~extra:8 rng in
  let degrees = Array.map (fun d -> max 0 (d - 1)) (Graph.degrees previous) in
  let warm = Sup.warm_seed ~rng ~degrees ~previous in
  let got = Graph.degrees warm in
  Array.iteri
    (fun v d ->
      if d > degrees.(v) then
        Alcotest.failf "vertex %d over capacity: %d > %d" v d degrees.(v))
    got;
  (* The warm start is a simple graph that reuses previous structure. *)
  let edges = Graph.edges warm in
  let uniq = List.sort_uniq compare edges in
  Alcotest.(check int) "no duplicate edges" (List.length edges) (List.length uniq);
  List.iter (fun (u, v) -> if u = v then Alcotest.fail "self-loop in warm seed") edges;
  let prev_edges = Graph.edges previous in
  let kept = List.filter (fun e -> List.mem e prev_edges) edges in
  Alcotest.(check bool) "most surviving capacity is filled from previous edges" true
    (List.length kept > List.length prev_edges / 2)

(* ---- shutdown escalation ---- *)

let test_shutdown_double_signal_counter () =
  Shutdown.reset ();
  Alcotest.(check bool) "idle" false (Shutdown.requested ());
  Shutdown.request ();
  Alcotest.(check bool) "one signal drains" true (Shutdown.requested ());
  Alcotest.(check bool) "one signal does not force" false (Shutdown.forced ());
  Shutdown.request ();
  Alcotest.(check bool) "second signal forces" true (Shutdown.forced ());
  Shutdown.reset ();
  Alcotest.(check bool) "reset clears escalation" false (Shutdown.requested ())

(* Regression: a second SIGINT during drain must interrupt the in-flight
   epoch immediately — with a final snapshot — and the epoch must resume
   bit-identically afterwards. *)
let test_shutdown_double_signal_interrupts_epoch () =
  let reference =
    with_temp_dir (fun dir ->
        let sup, _ = Sup.open_dir ~config:(small_config ()) dir in
        feed_all sup (base_events ());
        let o = Sup.tick sup in
        let out = (o, Option.map Graph.edges (Sup.synthetic sup)) in
        Sup.close sup;
        out)
  in
  with_temp_dir (fun dir ->
      let cfg = small_config () in
      let sup, _ = Sup.open_dir ~config:cfg dir in
      feed_all sup (base_events ());
      (* Deliver two signals mid-walk: the first starts the drain, the
         second escalates and the walk must stop at the next batch. *)
      Fault.arm_action ~site:"mcmc.signal" ~after:1 (fun () ->
          Shutdown.request ();
          Shutdown.request ());
      (match Sup.tick sup with
      | None -> ()
      | Some o ->
          Alcotest.failf "forced shutdown did not interrupt: %s"
            (Sup.outcome_to_string o));
      Fault.disarm ();
      Shutdown.reset ();
      Sup.close sup;
      (* The interrupted epoch is in flight with a durable snapshot; a
         fresh process resumes and completes it bit-identically. *)
      let sup, recovery = Sup.open_dir ~config:cfg dir in
      Alcotest.(check (option int)) "epoch was left in flight" (Some 0)
        recovery.Sup.resumed_epoch;
      let o = Sup.tick sup in
      let got = (o, Option.map Graph.edges (Sup.synthetic sup)) in
      Sup.close sup;
      Alcotest.(check bool) "resumed epoch is bit-identical" true (got = reference))

(* ---- satellite: parse-time strictness ---- *)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_graph_io_rejects_duplicates () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "dup.txt" in
      write_lines path [ "0 1"; "1 2"; "1 0" ];
      (match Io.read path with
      | exception Io.Parse_error { line = 3; reason; _ } ->
          Alcotest.(check bool) "reason names the duplicate" true
            (String.length reason > 0)
      | exception Io.Parse_error { line; _ } ->
          Alcotest.failf "duplicate flagged at wrong line %d" line
      | _ -> Alcotest.fail "duplicate edge accepted");
      let path2 = Filename.concat dir "loop.txt" in
      write_lines path2 [ "0 1"; "2 2" ];
      match Io.read path2 with
      | exception Io.Parse_error { line = 2; _ } -> ()
      | exception Io.Parse_error { line; _ } ->
          Alcotest.failf "self-loop flagged at wrong line %d" line
      | _ -> Alcotest.fail "self-loop accepted")

(* ---- satellite: typed I/O errors ---- *)

let test_journal_io_error_is_typed () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      (* Occupy the journal's path with a directory: opening must fail
         with the typed error, not a raw Sys_error. *)
      Unix.mkdir (Filename.concat dir "wal.log") 0o755;
      match Wpinq_service.Wal.open_dir dir with
      | exception Journal.Io_error { op; path; cause } ->
          Alcotest.(check bool) "op recorded" true (op = "read" || op = "open");
          Alcotest.(check bool) "path recorded" true (String.length path > 0);
          Alcotest.(check bool) "cause recorded" true (String.length cause > 0)
      | exception Sys_error _ -> Alcotest.fail "raw Sys_error escaped"
      | _ -> Alcotest.fail "journal opened over a directory")

let suite =
  [
    Alcotest.test_case "event codec" `Quick test_event_codec;
    Alcotest.test_case "ingest roundtrip" `Quick test_ingest_roundtrip;
    Alcotest.test_case "ingest torn tail" `Quick test_ingest_torn_tail;
    Alcotest.test_case "ingest compaction" `Quick test_ingest_compaction;
    Alcotest.test_case "epoch ledger arithmetic" `Quick test_epoch_ledger_arithmetic;
    Alcotest.test_case "epoch ledger forfeit" `Quick test_epoch_ledger_forfeit;
    Alcotest.test_case "epoch ledger guards" `Quick test_epoch_ledger_guards;
    Alcotest.test_case "epoch ledger reopen" `Quick test_epoch_ledger_reopen;
    Alcotest.test_case "supervisor epochs" `Slow test_supervisor_epochs;
    Alcotest.test_case "kill/resume: epoch journal" `Slow test_kill_resume_epoch_journal;
    Alcotest.test_case "kill/resume: mid-walk" `Slow test_kill_resume_mcmc;
    Alcotest.test_case "kill/resume: checkpoint write" `Slow test_kill_resume_checkpoint;
    Alcotest.test_case "chaos: retry then complete" `Slow test_chaos_retry_then_complete;
    Alcotest.test_case "chaos: exhausted degrades" `Slow test_chaos_exhausted_degrades;
    Alcotest.test_case "forfeit policy" `Slow test_forfeit_policy;
    Alcotest.test_case "refusal when exhausted" `Slow test_refusal_when_exhausted;
    Alcotest.test_case "kill before a fit snapshot: doubt charge is the spend" `Slow
      test_doubt_charge_is_the_spend;
    Alcotest.test_case "warm seed respects degrees" `Quick test_warm_seed_respects_degrees;
    Alcotest.test_case "shutdown: double signal counter" `Quick
      test_shutdown_double_signal_counter;
    Alcotest.test_case "shutdown: double signal interrupts epoch" `Slow
      test_shutdown_double_signal_interrupts_epoch;
    Alcotest.test_case "graph io rejects duplicates" `Quick
      test_graph_io_rejects_duplicates;
    Alcotest.test_case "journal io_error is typed" `Quick test_journal_io_error_is_typed;
  ]
