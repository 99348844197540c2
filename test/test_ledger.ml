module Ledger = Wpinq_service.Ledger
module Prng = Wpinq_prng.Prng

let with_temp_dir f =
  let dir = Filename.temp_file "wpinq_ledger" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let check_close ?(tol = 1e-9) what expected actual =
  Alcotest.(check (float tol)) what expected actual

let ok what = function
  | Ok v -> v
  | Error r -> Alcotest.failf "%s refused: %s" what (Ledger.refusal_to_string r)

let get what = function Some v -> v | None -> Alcotest.failf "%s: no such tenant" what

(* Every account must satisfy spent + committed <= allocated (+slack) at
   every moment — the escrow invariant the whole subsystem exists to
   enforce. *)
let assert_no_overspend l =
  match Ledger.overspend l with
  | [] -> ()
  | (tenant, excess) :: _ -> Alcotest.failf "overspend: %s by %.12g" tenant excess

(* ---- escrow lifecycle ---- *)

let test_escrow_lifecycle () =
  let l = Ledger.create_in_memory () in
  ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:1.0);
  let id = ok "escrow" (Ledger.escrow l ~tenant:"d" ~cost:0.3 ~label:"q1") in
  check_close "escrow holds committed" 0.3 (get "d" (Ledger.committed l ~tenant:"d"));
  check_close "available shrinks" 0.7 (get "d" (Ledger.available l ~tenant:"d"));
  check_close "nothing spent yet" 0.0 (get "d" (Ledger.spent l ~tenant:"d"));
  Alcotest.(check int) "one open escrow" 1 (Ledger.open_escrows l);
  ok "commit" (Ledger.commit l id);
  check_close "commit moves escrow to spent" 0.3 (get "d" (Ledger.spent l ~tenant:"d"));
  check_close "committed clears" 0.0 (get "d" (Ledger.committed l ~tenant:"d"));
  (* Release: the reservation returns untouched. *)
  let id2 = ok "escrow 2" (Ledger.escrow l ~tenant:"d" ~cost:0.2 ~label:"q2") in
  ok "release" (Ledger.release l id2);
  check_close "release returns to available" 0.7 (get "d" (Ledger.available l ~tenant:"d"));
  (* An escrow settles exactly once. *)
  (match Ledger.commit l id with
  | Error (Ledger.Unknown_escrow i) -> Alcotest.(check int) "settled id" id i
  | _ -> Alcotest.fail "double commit accepted");
  (match Ledger.release l id2 with
  | Error (Ledger.Unknown_escrow _) -> ()
  | _ -> Alcotest.fail "double release accepted");
  assert_no_overspend l

let test_refusals () =
  let l = Ledger.create_in_memory () in
  ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:1.0);
  (* Invalid ε is refused before it can poison the books. *)
  List.iter
    (fun bad ->
      match Ledger.escrow l ~tenant:"d" ~cost:bad ~label:"q" with
      | Error (Ledger.Invalid_epsilon { value; _ }) ->
          Alcotest.(check bool) "refusal names the value" true
            (Int64.bits_of_float value = Int64.bits_of_float bad)
      | _ -> Alcotest.failf "escrow accepted cost %h" bad)
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.5 ];
  (match Ledger.escrow l ~tenant:"ghost" ~cost:0.1 ~label:"q" with
  | Error (Ledger.Unknown_tenant "ghost") -> ()
  | _ -> Alcotest.fail "unknown tenant admitted");
  (match Ledger.create_root l ~tenant:"d" ~allocated:1.0 with
  | Error (Ledger.Duplicate_tenant "d") -> ()
  | _ -> Alcotest.fail "duplicate tenant created");
  (* Atomic refusal: an over-budget escrow reserves nothing. *)
  (match Ledger.escrow l ~tenant:"d" ~cost:1.5 ~label:"q" with
  | Error (Ledger.Insufficient_budget { requested; available; _ }) ->
      check_close "requested" 1.5 requested;
      check_close "available" 1.0 available
  | _ -> Alcotest.fail "overdraw admitted");
  check_close "refusal reserved nothing" 0.0 (get "d" (Ledger.committed l ~tenant:"d"));
  (* Retire is blocked by open escrows... *)
  let id = ok "escrow" (Ledger.escrow l ~tenant:"d" ~cost:0.1 ~label:"q") in
  (match Ledger.retire l ~tenant:"d" with
  | Error (Ledger.Open_escrows { count; _ }) -> Alcotest.(check int) "open count" 1 count
  | _ -> Alcotest.fail "retire with open escrow accepted");
  ok "release" (Ledger.release l id);
  (* ...and by live children. *)
  ok "delegate" (Ledger.delegate l ~parent:"d" ~tenant:"child" ~allocated:0.25);
  (match Ledger.retire l ~tenant:"d" with
  | Error (Ledger.Has_children { children; _ }) ->
      Alcotest.(check (list string)) "children named" [ "child" ] children
  | _ -> Alcotest.fail "retire with live child accepted");
  ok "retire child" (Ledger.retire l ~tenant:"child");
  ok "retire root" (Ledger.retire l ~tenant:"d");
  (* A retired tenant refuses everything. *)
  (match Ledger.escrow l ~tenant:"d" ~cost:0.1 ~label:"q" with
  | Error (Ledger.Retired_tenant "d") -> ()
  | _ -> Alcotest.fail "retired tenant admitted");
  assert_no_overspend l

let test_delegation_and_retire () =
  let l = Ledger.create_in_memory () in
  ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:10.0);
  ok "delegate" (Ledger.delegate l ~parent:"d" ~tenant:"a" ~allocated:4.0);
  (* The delegation is a long-lived escrow on the parent. *)
  check_close "parent committed" 4.0 (get "d" (Ledger.committed l ~tenant:"d"));
  check_close "parent available" 6.0 (get "d" (Ledger.available l ~tenant:"d"));
  (* The parent cannot delegate or spend what it escrowed away. *)
  (match Ledger.delegate l ~parent:"d" ~tenant:"b" ~allocated:7.0 with
  | Error (Ledger.Insufficient_budget _) -> ()
  | _ -> Alcotest.fail "over-delegation accepted");
  let id = ok "child escrow" (Ledger.escrow l ~tenant:"a" ~cost:1.0 ~label:"q") in
  ok "child commit" (Ledger.commit l id);
  ok "retire" (Ledger.retire l ~tenant:"a");
  (* Settlement: spent rolls up, the unspent remainder returns. *)
  check_close "parent spent absorbs child" 1.0 (get "d" (Ledger.spent l ~tenant:"d"));
  check_close "delegation escrow returned" 0.0 (get "d" (Ledger.committed l ~tenant:"d"));
  check_close "parent available restored" 9.0 (get "d" (Ledger.available l ~tenant:"d"));
  Alcotest.(check bool) "child flagged retired" true
    (get "a" (Ledger.view l ~tenant:"a")).Ledger.v_retired;
  assert_no_overspend l

(* ---- durability ---- *)

let test_durable_roundtrip () =
  with_temp_dir (fun dir ->
      let l, rec0 = Ledger.open_dir dir in
      Alcotest.(check int) "fresh dir replays nothing" 0 rec0.Ledger.replayed;
      ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:5.0);
      ok "delegate" (Ledger.delegate l ~parent:"d" ~tenant:"a" ~allocated:2.0);
      let id = ok "escrow" (Ledger.escrow l ~tenant:"a" ~cost:0.7 ~label:"q") in
      ok "commit" (Ledger.commit l id);
      let id2 = ok "escrow" (Ledger.escrow l ~tenant:"a" ~cost:0.4 ~label:"q") in
      ok "release" (Ledger.release l id2);
      let live = Ledger.dump l in
      Ledger.close l;
      let l', recovery = Ledger.open_dir dir in
      (* Bit-for-bit: mutations replay in journal order, so every float
         accumulates identically. *)
      Alcotest.(check bool) "recovered dump is bit-identical" true (Ledger.dump l' = live);
      Alcotest.(check int) "all escrows were settled" 0 recovery.Ledger.charged_on_doubt;
      Alcotest.(check int) "no torn bytes" 0 recovery.Ledger.torn_bytes;
      assert_no_overspend l';
      Ledger.close l')

let test_charge_on_doubt () =
  with_temp_dir (fun dir ->
      let l, _ = Ledger.open_dir dir in
      ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:2.0);
      let _settled =
        let id = ok "escrow" (Ledger.escrow l ~tenant:"d" ~cost:0.25 ~label:"ok") in
        ok "commit" (Ledger.commit l id)
      in
      let _open = ok "escrow" (Ledger.escrow l ~tenant:"d" ~cost:0.5 ~label:"in-flight") in
      (* Crash with the escrow unresolved (close flushes the journal; the
         escrow record is durable, its settlement never happened). *)
      Ledger.close l;
      let l', recovery = Ledger.open_dir dir in
      Alcotest.(check int) "one escrow in doubt" 1 recovery.Ledger.charged_on_doubt;
      check_close "its ε" 0.5 recovery.Ledger.doubt_epsilon;
      (* Charge-on-doubt: we cannot prove the answer did not escape, so
         the ε is treated as spent — never returned. *)
      check_close "doubt charged as spent" 0.75 (get "d" (Ledger.spent l' ~tenant:"d"));
      check_close "no dangling commitment" 0.0 (get "d" (Ledger.committed l' ~tenant:"d"));
      Alcotest.(check int) "no open escrows survive recovery" 0 (Ledger.open_escrows l');
      assert_no_overspend l';
      (* The resolution is durable: a second recovery finds settled books,
         not the same doubt again. *)
      Ledger.close l';
      let l'', recovery2 = Ledger.open_dir dir in
      Alcotest.(check int) "doubt resolved once" 0 recovery2.Ledger.charged_on_doubt;
      check_close "spent unchanged" 0.75 (get "d" (Ledger.spent l'' ~tenant:"d"));
      Ledger.close l'')

let test_compaction_bounds_journal () =
  with_temp_dir (fun dir ->
      let l, _ = Ledger.open_dir ~compact_every:4 dir in
      ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:100.0);
      for i = 1 to 30 do
        let id =
          ok "escrow" (Ledger.escrow l ~tenant:"d" ~cost:0.01 ~label:(string_of_int i))
        in
        if i mod 2 = 0 then ok "commit" (Ledger.commit l id)
        else ok "release" (Ledger.release l id)
      done;
      let live = Ledger.dump l in
      Ledger.close l;
      let snapshots =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun n -> Filename.check_suffix n ".wpq")
      in
      Alcotest.(check bool) "compaction produced snapshot generations" true
        (List.length snapshots >= 1);
      let l', _ = Ledger.open_dir ~compact_every:4 dir in
      Alcotest.(check bool) "recovered through compaction" true (Ledger.dump l' = live);
      assert_no_overspend l';
      Ledger.close l')

let test_torn_tail_trimmed () =
  with_temp_dir (fun dir ->
      let l, _ = Ledger.open_dir dir in
      ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:3.0);
      let id = ok "escrow" (Ledger.escrow l ~tenant:"d" ~cost:1.0 ~label:"q") in
      ok "commit" (Ledger.commit l id);
      let live = Ledger.dump l in
      Ledger.close l;
      (* A crash mid-append leaves a torn record at the tail. *)
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "wal.log")
      in
      output_string oc "\x42\x00torn garbage";
      close_out oc;
      let l', recovery = Ledger.open_dir dir in
      Alcotest.(check bool) "torn bytes detected" true (recovery.Ledger.torn_bytes > 0);
      Alcotest.(check bool) "state unharmed" true (Ledger.dump l' = live);
      assert_no_overspend l';
      Ledger.close l')

(* ---- property: the invariant under random op sequences ----

   A random serial program against the public API, mirrored onto a
   durable ledger: after every operation no account may be overspent,
   and at the end the durable ledger must recover bit-identically. *)

let random_program l rng ~ops =
  let open_ids = ref [] in
  let tenants = [| "root"; "a"; "b"; "c" |] in
  for _ = 1 to ops do
    let tenant = tenants.(Prng.int rng (Array.length tenants)) in
    (match Prng.int rng 6 with
    | 0 | 1 ->
        let cost = 0.05 *. float_of_int (1 + Prng.int rng 8) in
        (match Ledger.escrow l ~tenant ~cost ~label:"q" with
        | Ok id -> open_ids := id :: !open_ids
        | Error _ -> ())
    | 2 -> (
        match !open_ids with
        | id :: rest ->
            ignore (Ledger.commit l id);
            open_ids := rest
        | [] -> ())
    | 3 -> (
        match !open_ids with
        | id :: rest ->
            ignore (Ledger.release l id);
            open_ids := rest
        | [] -> ())
    | 4 ->
        let child = tenant ^ "-sub" ^ string_of_int (Prng.int rng 3) in
        ignore
          (Ledger.delegate l ~parent:tenant ~tenant:child
             ~allocated:(0.1 *. float_of_int (Prng.int rng 5)))
    | _ -> ignore (Ledger.retire l ~tenant));
    if Ledger.overspend l <> [] then failwith "overspend mid-program"
  done;
  (* Settle the leftovers so the books quiesce. *)
  List.iter (fun id -> ignore (Ledger.release l id)) !open_ids

let prop_serial_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"escrow invariant under random serial programs"
       QCheck.(pair small_nat (int_bound 120))
       (fun (seed, ops) ->
         with_temp_dir (fun dir ->
             let mem = Ledger.create_in_memory () in
             let dur, _ = Ledger.open_dir ~compact_every:16 dir in
             List.iter
               (fun l ->
                 match Ledger.create_root l ~tenant:"root" ~allocated:4.0 with
                 | Ok () -> ()
                 | Error _ -> failwith "root creation refused")
               [ mem; dur ];
             (* The same program (same PRNG stream) runs against both. *)
             random_program mem (Prng.create (seed + 1)) ~ops;
             random_program dur (Prng.create (seed + 1)) ~ops;
             let identical = Ledger.dump mem = Ledger.dump dur in
             let live = Ledger.dump dur in
             Ledger.close dur;
             let dur', recovery = Ledger.open_dir dir in
             let recovered = Ledger.dump dur' = live in
             let clean =
               Ledger.overspend mem = [] && Ledger.overspend dur' = []
               && recovery.Ledger.charged_on_doubt = 0
             in
             Ledger.close dur';
             identical && recovered && clean)))

(* ---- property: the invariant under concurrent interleavings ----

   Several domains hammer one shared ledger with escrow/commit/release
   programs.  Whatever the interleaving, admission control under the
   ledger lock must keep every account within its allocation, and the
   drained books must recover bit-identically from disk. *)

let concurrent_round ~domains ~ops ~seed dir =
  let l, _ = Ledger.open_dir ~compact_every:32 dir in
  ok "create_root" (Ledger.create_root l ~tenant:"d" ~allocated:6.0);
  for i = 0 to 2 do
    ok "delegate"
      (Ledger.delegate l ~parent:"d" ~tenant:(Printf.sprintf "a%d" i) ~allocated:1.5)
  done;
  let worker k () =
    let rng = Prng.create (seed + (101 * (k + 1))) in
    let mine = ref [] in
    for _ = 1 to ops do
      let tenant = Printf.sprintf "a%d" (Prng.int rng 3) in
      match Prng.int rng 3 with
      | 0 -> (
          let cost = 0.01 *. float_of_int (1 + Prng.int rng 10) in
          match Ledger.escrow l ~tenant ~cost ~label:"q" with
          | Ok id -> mine := id :: !mine
          | Error _ -> ())
      | 1 -> (
          match !mine with
          | id :: rest ->
              ignore (Ledger.commit l id);
              mine := rest
          | [] -> ())
      | _ -> (
          match !mine with
          | id :: rest ->
              ignore (Ledger.release l id);
              mine := rest
          | [] -> ())
    done;
    (* Each domain settles its own leftovers: a well-behaved client. *)
    List.iter (fun id -> ignore (Ledger.commit l id)) !mine
  in
  let spawned = List.init domains (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join spawned;
  assert_no_overspend l;
  Alcotest.(check int) "books quiesced" 0 (Ledger.open_escrows l);
  let live = Ledger.dump l in
  Ledger.close l;
  let l', recovery = Ledger.open_dir dir in
  Alcotest.(check bool) "concurrent run recovers bit-identically" true
    (Ledger.dump l' = live);
  Alcotest.(check int) "nothing left in doubt" 0 recovery.Ledger.charged_on_doubt;
  assert_no_overspend l';
  Ledger.close l'

let test_concurrent_interleavings () =
  List.iter
    (fun seed -> with_temp_dir (concurrent_round ~domains:4 ~ops:50 ~seed))
    [ 3; 17; 52 ]

let suite =
  [
    Alcotest.test_case "escrow lifecycle" `Quick test_escrow_lifecycle;
    Alcotest.test_case "typed refusals" `Quick test_refusals;
    Alcotest.test_case "delegation and retire" `Quick test_delegation_and_retire;
    Alcotest.test_case "durable round-trip" `Quick test_durable_roundtrip;
    Alcotest.test_case "charge-on-doubt" `Quick test_charge_on_doubt;
    Alcotest.test_case "compaction bounds the journal" `Quick test_compaction_bounds_journal;
    Alcotest.test_case "torn tail trimmed" `Quick test_torn_tail_trimmed;
    prop_serial_invariant;
    Alcotest.test_case "concurrent interleavings" `Quick test_concurrent_interleavings;
  ]
