(* Model-based property tests for the interned-id state layer: [Itbl]
   (the struct-of-arrays weight table every operator now keeps) checked
   against a reference association-list model, and [Intern] (the
   value→dense-id layer) against a plain list.  The properties mirror the
   abort-residue guarantees the record-keyed [Wtbl] used to carry:
   speculative inserts that resize the table must vanish without trace on
   abort, committed insertion order must survive aborted speculations
   bit-for-bit, and interleaved commit/abort blocks must leave exactly
   the committed suffix. *)

module Dataflow = Wpinq_dataflow.Dataflow
module Engine = Dataflow.Engine
module Itbl = Dataflow.Itbl
module Intern = Dataflow.Intern

(* Reference model: insertion-ordered (id, grid weight) assoc list,
   dropping entries whose weight is exactly zero, as [Itbl.set] does —
   including swap-last removal, so the entry order is a deterministic
   function of the committed operation history. *)
module Model = struct
  type t = (int * int) list (* dense-slot order *)

  let empty : t = []
  let get m id = match List.assoc_opt id m with Some w -> w | None -> 0

  let set m id w =
    let present = List.mem_assoc id m in
    if w = 0 then
      if not present then m
      else begin
        let arr = Array.of_list m in
        let n = Array.length arr in
        let p = ref 0 in
        Array.iteri (fun i (j, _) -> if j = id then p := i) arr;
        arr.(!p) <- arr.(n - 1);
        Array.to_list (Array.sub arr 0 (n - 1))
      end
    else if present then List.map (fun (i, w0) -> if i = id then (i, w) else (i, w0)) m
    else m @ [ (id, w) ]

  let bump m id dw = set m id (get m id + dw)
end

type op = Set of int * int | Bump of int * int

let apply_op tbl model op =
  match op with
  | Set (id, w) ->
      Itbl.set tbl id w;
      Model.set model id w
  | Bump (id, dw) ->
      let old = Itbl.bump tbl id dw in
      Alcotest.(check int) "bump returns old weight" (Model.get model id) old;
      Model.bump model id dw

let check_agrees ~msg tbl model =
  Alcotest.(check int) (msg ^ ": size") (List.length model) (Itbl.size tbl);
  List.iter
    (fun (id, w) ->
      Alcotest.(check bool) (msg ^ ": mem") true (Itbl.mem tbl id);
      Alcotest.(check int) (msg ^ ": weight") w (Itbl.get tbl id))
    model;
  (* Probe a band of ids beyond the model to catch stale residue. *)
  for id = 0 to 80 do
    if not (List.mem_assoc id model) then begin
      Alcotest.(check bool) (msg ^ ": absent mem") false (Itbl.mem tbl id);
      Alcotest.(check int) (msg ^ ": absent weight") 0 (Itbl.get tbl id)
    end
  done

(* Grid-weight generator: exact zeros (removals), single units, and
   ordinary magnitudes, both signs. *)
let gen_weight =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.return 0;
      QCheck2.Gen.int_range (-1) 1;
      QCheck2.Gen.int_range (-(100 lsl 40)) (100 lsl 40);
    ]

(* Ids are drawn wide enough (0..63) that op sequences trigger several
   [pos]-array doublings from the 16-slot start — the speculative-resize
   path the Wtbl tests pinned. *)
let gen_op =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun id w -> Set (id, w)) (int_bound 63) gen_weight;
        map2 (fun id dw -> Bump (id, dw)) (int_bound 63) gen_weight;
      ])

let gen_ops = QCheck2.Gen.(list_size (int_bound 120) gen_op)

let test_model_agreement =
  QCheck2.Test.make ~name:"itbl = assoc model (non-speculative)" ~count:200 gen_ops (fun ops ->
      let engine = Engine.create () in
      let tbl = Itbl.create engine in
      let model = List.fold_left (fun m op -> apply_op tbl m op) Model.empty ops in
      check_agrees ~msg:"final" tbl model;
      (* Insertion order: [to_list] must equal the model exactly, not just
         as a set. *)
      Alcotest.(check (list (pair int int))) "insertion order" model (Itbl.to_list tbl);
      true)

let test_abort_residue =
  QCheck2.Test.make ~name:"abort leaves no residue (incl. resize)" ~count:200
    QCheck2.Gen.(pair gen_ops gen_ops)
    (fun (committed, speculative) ->
      let engine = Engine.create () in
      let tbl = Itbl.create engine in
      let model = List.fold_left (fun m op -> apply_op tbl m op) Model.empty committed in
      let snapshot = Itbl.to_list tbl in
      Engine.begin_speculation engine;
      (* Apply the speculative block against a throwaway model copy, then
         abort: the table must be bit-identical to the pre-speculation
         snapshot, including entry order (resizes grow arrays but the
         logged inverses restore every slot exactly). *)
      let _spec_model = List.fold_left (fun m op -> apply_op tbl m op) model speculative in
      Engine.abort engine;
      Alcotest.(check (list (pair int int)))
        "order and contents restored" snapshot (Itbl.to_list tbl);
      check_agrees ~msg:"post-abort" tbl model;
      true)

let test_interleaved_blocks =
  QCheck2.Test.make ~name:"interleaved commit/abort blocks" ~count:100
    QCheck2.Gen.(list_size (int_bound 8) (pair bool gen_ops))
    (fun blocks ->
      let engine = Engine.create () in
      let tbl = Itbl.create engine in
      let model = ref Model.empty in
      List.iter
        (fun (commit, ops) ->
          Engine.begin_speculation engine;
          let m' = List.fold_left (fun m op -> apply_op tbl m op) !model ops in
          if commit then begin
            Engine.commit engine;
            model := m'
          end
          else Engine.abort engine)
        blocks;
      check_agrees ~msg:"after blocks" tbl !model;
      Alcotest.(check (list (pair int int))) "final order" !model (Itbl.to_list tbl);
      true)

(* Model: first-sight order of distinct values.  [valid] is a
   precondition every generated value must meet. *)
let intern_model ~name ?(valid = fun _ -> true) ~missing gen =
  QCheck2.Test.make ~name ~count:200 QCheck2.Gen.(list_size (int_bound 200) gen) (fun values ->
      let intern = Intern.create () in
      let seen = ref [] in
      List.iter
        (fun v ->
          Alcotest.(check bool) "generated value is valid" true (valid v);
          (match List.assoc_opt v !seen with
          | Some id -> Alcotest.(check int) "find hits known value" id (Intern.find intern v)
          | None -> Alcotest.(check int) "find misses new value" (-1) (Intern.find intern v));
          let expected =
            match List.assoc_opt v !seen with
            | Some id -> id
            | None ->
                let id = List.length !seen in
                seen := !seen @ [ (v, id) ];
                id
          in
          Alcotest.(check int) "stable dense id" expected (Intern.intern intern v))
        values;
      Alcotest.(check int) "size = distinct count" (List.length !seen) (Intern.size intern);
      List.iter
        (fun (v, id) ->
          Alcotest.(check bool) "value roundtrip" true (Intern.value intern id = v);
          Alcotest.(check int) "find after every rehash" id (Intern.find intern v))
        !seen;
      Alcotest.(check int) "find misses" (-1) (Intern.find intern missing);
      true)

let test_intern_model =
  intern_model ~name:"intern assigns dense first-sight ids" ~missing:4096
    QCheck2.Gen.(int_bound 40)

(* Values whose hashes all collide: int lists sharing a 12-element prefix
   hash alike (the polymorphic hash stops after 10 meaningful words), so
   every lookup walks slots whose tag matches but whose value differs,
   and every rehash moves such slots. *)
let colliding_prefix = List.init 12 (fun i -> 1000 + i)

let test_intern_colliding_model =
  intern_model ~name:"intern model under full hash collisions"
    ~valid:(fun v -> Hashtbl.hash v = Hashtbl.hash colliding_prefix)
    ~missing:(colliding_prefix @ [ 9; 9; 9; 9 ])
    QCheck2.Gen.(map (fun sfx -> colliding_prefix @ sfx) (list_size (int_bound 3) (int_bound 5)))

(* Probe displacement stays flat however records arrive.  A batch netted
   through a stdlib [Hashtbl] (as [Input.feed] once coalesced one) reaches
   the interns in [Hashtbl.hash] bucket order.  An intern that placed
   records by that same hash saw every prefix of the batch land in one
   contiguous run of its slots, packed as densely as the coalescing table,
   and the run piled into one long cluster until the next doubling spread
   it out.  Under linear probing the total displacement of a finished
   table does not depend on insertion order, so the pile-up shows only
   while the batch arrives: the records are interned one at a time, in
   bucket order, and the mean displacement is sampled as they go. *)
let mean_displacement_bound = 4.0

let mean_displacement engine =
  let s = Engine.intern_stats engine in
  float_of_int s.Engine.displacement /. float_of_int (max 1 s.Engine.ids)

let test_feed_displacement () =
  let side = 256 in
  let n = side * side in
  let buckets = ref 1 in
  while !buckets < n do
    buckets := 2 * !buckets
  done;
  let records = Array.init n (fun i -> (i / side, i mod side)) in
  let bucket x = Hashtbl.hash x land (!buckets - 1) in
  Array.stable_sort (fun x y -> compare (bucket x) (bucket y)) records;
  let intern = Intern.create () and worst = ref 0.0 in
  Array.iteri
    (fun i x ->
      ignore (Intern.intern intern x);
      if (i + 1) land 1023 = 0 then
        worst :=
          Float.max !worst
            (float_of_int (Intern.displacement intern) /. float_of_int (Intern.size intern)))
    records;
  Alcotest.(check int) "every record interned" n (Intern.size intern);
  Alcotest.(check bool)
    (Printf.sprintf "worst mean displacement %.2f < %.1f" !worst mean_displacement_bound)
    true
    (!worst < mean_displacement_bound)

let test_negative_id () =
  let engine = Engine.create () in
  let tbl = Itbl.create engine in
  Alcotest.check_raises "get" (Invalid_argument "Dataflow.Itbl: negative id") (fun () ->
      ignore (Itbl.get tbl (-1)));
  Alcotest.check_raises "set" (Invalid_argument "Dataflow.Itbl: negative id") (fun () ->
      Itbl.set tbl (-3) 1);
  Alcotest.check_raises "mem" (Invalid_argument "Dataflow.Itbl: negative id") (fun () ->
      ignore (Itbl.mem tbl (-2)))

let suite =
  [
    QCheck_alcotest.to_alcotest test_model_agreement;
    QCheck_alcotest.to_alcotest test_abort_residue;
    QCheck_alcotest.to_alcotest test_interleaved_blocks;
    QCheck_alcotest.to_alcotest test_intern_model;
    QCheck_alcotest.to_alcotest test_intern_colliding_model;
    Alcotest.test_case "feed keeps probe displacement flat" `Quick test_feed_displacement;
    Alcotest.test_case "negative ids rejected" `Quick test_negative_id;
  ]
