(* The paper's graph queries: record weights must match the closed forms
   (Eqs. 3, 4, 6, 8), use-counts must match the published privacy costs,
   and Batch/Flow instantiations must agree. *)

module Wdata = Wpinq_weighted.Wdata
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Prng = Wpinq_prng.Prng
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Queries = Wpinq_queries.Queries
module Dataflow = Wpinq_dataflow.Dataflow
open Helpers

module Qb = Queries.Make (Batch)
module Qf = Queries.Make (Flow)

let sym_source g =
  let budget = Budget.create ~name:"edges" 1e9 in
  (budget, Batch.source_records ~budget (Graph.directed_edges g))

let eval q = Batch.unsafe_value q

let random_graph seed = Gen.erdos_renyi ~n:24 ~m:60 (Prng.create seed)
let clustered_graph seed = Gen.clustered ~n:60 ~community:8 ~p_in:0.7 ~extra:30 (Prng.create seed)

(* ---- use counting: the paper's privacy costs ---- *)

let uses q = match Batch.uses q with [ (_, n) ] -> n | _ -> -1

let test_privacy_costs () =
  let _, sym = sym_source (random_graph 1) in
  Alcotest.(check int) "degree ccdf: 1" 1 (uses (Qb.degree_ccdf sym));
  Alcotest.(check int) "degree sequence: 1" 1 (uses (Qb.degree_sequence sym));
  Alcotest.(check int) "node count: 1" 1 (uses (Qb.node_count sym));
  Alcotest.(check int) "edge count: 1" 1 (uses (Qb.edge_count sym));
  Alcotest.(check int) "paths: 2" 2 (uses (Qb.paths2 sym));
  Alcotest.(check int) "JDD: 4" 4 (uses (Qb.jdd sym));
  Alcotest.(check int) "TbD: 9" 9 (uses (Qb.tbd sym));
  Alcotest.(check int) "TbI: 4" 4 (uses (Qb.tbi sym));
  Alcotest.(check int) "SbD: 12" 12 (uses (Qb.sbd sym));
  Alcotest.(check int) "degree histogram: 1" 1 (uses (Qb.degree_histogram sym));
  Alcotest.(check int) "paths3: 3" 3 (uses (Qb.paths3 sym));
  Alcotest.(check int) "SbI: 6" 6 (uses (Qb.sbi sym));
  (* Starting from the undirected edge list doubles everything
     (Theorems 2-3). *)
  let budget = Budget.create ~name:"undirected" 1e9 in
  let undirected = Batch.source_records ~budget (Graph.edges (random_graph 1)) in
  Alcotest.(check int) "TbD from undirected: 18" 18 (uses (Qb.tbd (Qb.symmetrize undirected)));
  Alcotest.(check int) "TbI from undirected: 8" 8 (uses (Qb.tbi (Qb.symmetrize undirected)))

(* ---- degree statistics ---- *)

let test_degrees_weights () =
  let g = random_graph 2 in
  let _, sym = sym_source g in
  let degs = eval (Qb.degrees sym) in
  Wdata.iter (fun (v, d) w ->
      Alcotest.(check int) "degree value" (Graph.degree g v) d;
      check_close "degree weight 0.5" 0.5 w)
    degs;
  Alcotest.(check int) "one record per vertex" (Graph.n g) (Wdata.support_size degs)

let test_degree_ccdf_matches_graph () =
  let g = clustered_graph 3 in
  let _, sym = sym_source g in
  let ccdf = eval (Qb.degree_ccdf sym) in
  let expect = Graph.degree_ccdf g in
  Array.iteri
    (fun i c -> check_close (Printf.sprintf "ccdf[%d]" i) (float_of_int c) (Wdata.weight ccdf i))
    expect;
  check_close "beyond dmax" 0.0 (Wdata.weight ccdf (Graph.dmax g))

let test_degree_sequence_matches_graph () =
  let g = clustered_graph 4 in
  let _, sym = sym_source g in
  let seq = eval (Qb.degree_sequence sym) in
  let expect = Graph.degree_sequence_desc g in
  Array.iteri
    (fun j d -> check_close (Printf.sprintf "seq[%d]" j) (float_of_int d) (Wdata.weight seq j))
    expect

let test_nodes_and_counts () =
  let g = random_graph 5 in
  let _, sym = sym_source g in
  let nodes = eval (Qb.nodes sym) in
  Wdata.iter (fun _ w -> check_close "node weight" 0.5 w) nodes;
  Alcotest.(check int) "all vertices" (Graph.n g) (Wdata.support_size nodes);
  check_close "node count |V|/2"
    (float_of_int (Graph.n g) /. 2.0)
    (Wdata.weight (eval (Qb.node_count sym)) ());
  check_close "edge count 2m"
    (float_of_int (2 * Graph.m g))
    (Wdata.weight (eval (Qb.edge_count sym)) ())

(* ---- paths and JDD ---- *)

let test_paths_weights () =
  let g = random_graph 6 in
  let _, sym = sym_source g in
  let paths = eval (Qb.paths2 sym) in
  Wdata.iter
    (fun (a, b, c) w ->
      Alcotest.(check bool) "real path" true (Graph.has_edge g a b && Graph.has_edge g b c);
      Alcotest.(check bool) "no 2-cycles" true (a <> c);
      check_close "1/(2db)" (1.0 /. (2.0 *. float_of_int (Graph.degree g b))) w)
    paths;
  let expected_count =
    Array.fold_left (fun acc d -> acc + (d * (d - 1))) 0 (Graph.degrees g)
  in
  Alcotest.(check int) "path count d(d-1)" expected_count (Wdata.support_size paths)

let test_jdd_weights () =
  let g = clustered_graph 7 in
  let _, sym = sym_source g in
  let jdd = eval (Qb.jdd sym) in
  (* Expected: every directed edge (a,b) lands weight 1/(2+2da+2db) on
     record (da, db). *)
  let expected =
    Wdata.of_list
      (List.map
         (fun (a, b) ->
           let da = Graph.degree g a and db = Graph.degree g b in
           ((da, db), Queries.jdd_pair_weight (da, db)))
         (Graph.directed_edges g))
  in
  check_wdata ~tol:1e-6
    (fun fmt (x, y) -> Format.fprintf fmt "(%d,%d)" x y)
    "jdd weights" expected jdd

(* ---- triangles ---- *)

let test_tbd_weights () =
  let g = clustered_graph 8 in
  let _, sym = sym_source g in
  let tbd = eval (Qb.tbd sym) in
  let expected =
    Wdata.of_list
      (List.map
         (fun (triple, count) ->
           (triple, float_of_int count *. Queries.tbd_triple_weight triple))
         (Graph.triangles_by_degree g))
  in
  check_wdata ~tol:1e-6
    (fun fmt (x, y, z) -> Format.fprintf fmt "(%d,%d,%d)" x y z)
    "tbd = count * 3/(x²+y²+z²)" expected tbd

let test_tbd_bucketing () =
  let g = clustered_graph 9 in
  let _, sym = sym_source g in
  let k = 4 in
  let tbd = eval (Qb.tbd ~bucket:k sym) in
  (* Bucketed records must carry the same total weight, redistributed onto
     floor(d/k) triples. *)
  let plain = eval (Qb.tbd sym) in
  check_close ~tol:1e-6 "total weight preserved" (Wdata.total plain) (Wdata.total tbd);
  Wdata.iter
    (fun (x, y, z) _ ->
      Alcotest.(check bool) "bucketed degrees small" true
        (x <= Graph.dmax g / k && y <= Graph.dmax g / k && z <= Graph.dmax g / k))
    tbd

let test_tbi_weight () =
  let g = clustered_graph 10 in
  let _, sym = sym_source g in
  let tbi = eval (Qb.tbi sym) in
  Alcotest.(check int) "single record" 1 (Wdata.support_size tbi);
  check_close ~tol:1e-6 "Eq. 8" (Graph.tbi_signal g) (Wdata.weight tbi ());
  (* Triangle-free graph: zero signal. *)
  let _, sym5 = sym_source (Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]) in
  check_close "C5 signal" 0.0 (Wdata.weight (eval (Qb.tbi sym5)) ())

(* ---- squares ---- *)

(* Brute-force 4-cycle enumeration with cycle order, for Eq. (6). *)
let squares_brute g =
  let n = Graph.n g in
  let acc = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Graph.has_edge g a b then
        for c = 0 to n - 1 do
          if c <> a && c <> b && Graph.has_edge g b c then
            for d = 0 to n - 1 do
              (* Canonical form: a = min vertex; b < d are its two cycle
                 neighbors; c is opposite. *)
              if d <> a && d <> b && d <> c && Graph.has_edge g c d
                 && Graph.has_edge g d a && a < c && b < d
              then acc := (a, b, c, d) :: !acc
            done
        done
    done
  done;
  !acc

let test_sbd_weights () =
  let g = Gen.erdos_renyi ~n:14 ~m:30 (Prng.create 11) in
  let _, sym = sym_source g in
  let sbd = eval (Qb.sbd sym) in
  (* Each square a-b-c-d contributes through its 8 traversals; traversals
     starting at opposite corners share the Eq. (6) value. *)
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (a, b, c, d) ->
      let da = Graph.degree g a and db = Graph.degree g b in
      let dc = Graph.degree g c and dd = Graph.degree g d in
      let key =
        match List.sort compare [ da; db; dc; dd ] with
        | [ w; x; y; z ] -> (w, x, y, z)
        | _ -> assert false
      in
      let w =
        (* Traversals a-b-c-d / c-d-a-b / reversals: eq6(da,db,dc,dd);
           traversals b-c-d-a / d-a-b-c / reversals: eq6(db,dc,dd,da). *)
        (4.0 *. Queries.sbd_cycle_weight da db dc dd)
        +. (4.0 *. Queries.sbd_cycle_weight db dc dd da)
      in
      Hashtbl.replace expected key (w +. Option.value ~default:0.0 (Hashtbl.find_opt expected key)))
    (squares_brute g);
  let expected = Wdata.of_list (Hashtbl.fold (fun k w acc -> (k, w) :: acc) expected []) in
  check_wdata ~tol:1e-6
    (fun fmt (w, x, y, z) -> Format.fprintf fmt "(%d,%d,%d,%d)" w x y z)
    "sbd per Eq. 6" expected sbd

let test_degree_histogram () =
  let g = clustered_graph 15 in
  let _, sym = sym_source g in
  let hist = eval (Qb.degree_histogram sym) in
  let expect = Hashtbl.create 16 in
  Array.iter
    (fun d -> Hashtbl.replace expect d (1 + Option.value ~default:0 (Hashtbl.find_opt expect d)))
    (Graph.degrees g);
  Hashtbl.iter
    (fun d c ->
      check_close (Printf.sprintf "hist[%d]" d) (0.5 *. float_of_int c) (Wdata.weight hist d))
    expect

let test_paths3_structure () =
  let g = random_graph 16 in
  let _, sym = sym_source g in
  let p3 = eval (Qb.paths3 sym) in
  Wdata.iter
    (fun (a, b, c, d) w ->
      Alcotest.(check bool) "walk edges" true
        (Graph.has_edge g a b && Graph.has_edge g b c && Graph.has_edge g c d);
      Alcotest.(check bool) "vertex constraints" true (a <> c && b <> d && a <> d);
      Alcotest.(check bool) "positive weight" true (w > 0.0))
    p3

let test_sbi_signal () =
  (* Square-free graphs give exactly zero; C4 gives a positive count. *)
  let zero_graphs =
    [ Graph.of_edges [ (0, 1); (1, 2); (0, 2) ] (* K3 *);
      Graph.of_edges [ (0, 1); (0, 2); (0, 3); (0, 4) ] (* star *) ]
  in
  List.iter
    (fun g ->
      let _, sym = sym_source g in
      check_close "square-free: zero sbi" 0.0 (Wdata.weight (eval (Qb.sbi sym)) ()))
    zero_graphs;
  let _, sym4 = sym_source (Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0) ]) in
  Alcotest.(check bool) "C4: positive sbi" true (Wdata.weight (eval (Qb.sbi sym4)) () > 0.1)

let test_sbi_separates_lattice_from_random () =
  (* A lattice is square-rich; rewiring it destroys squares; SbI must see
     the difference (that is its whole purpose). *)
  let k = 6 in
  let idx i j = (i * k) + j in
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if i + 1 < k then edges := (idx i j, idx (i + 1) j) :: !edges;
      if j + 1 < k then edges := (idx i j, idx i (j + 1)) :: !edges
    done
  done;
  let lattice = Graph.of_edges !edges in
  let rand = Wpinq_graph.Rewire.randomize lattice (Prng.create 17) in
  let signal g =
    let _, sym = sym_source g in
    Wdata.weight (eval (Qb.sbi sym)) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "lattice %.2f >> random %.2f" (signal lattice) (signal rand))
    true
    (signal lattice > 4.0 *. signal rand);
  Alcotest.(check int) "lattice squares" ((k - 1) * (k - 1)) (Graph.square_count lattice)

(* ---- Batch/Flow agreement on every query ---- *)

let test_batch_flow_agreement () =
  let g = Gen.erdos_renyi ~n:16 ~m:36 (Prng.create 12) in
  let records = Graph.directed_edges g in
  let budget = Budget.create ~name:"edges" 1e9 in
  let bsym = Batch.source_records ~budget records in
  let engine = Dataflow.Engine.create () in
  let handle, fsym = Flow.input engine in
  let s_tbd = Dataflow.Sink.attach (Flow.node (Qf.tbd fsym)) in
  let s_sbd = Dataflow.Sink.attach (Flow.node (Qf.sbd fsym)) in
  let s_tbi = Dataflow.Sink.attach (Flow.node (Qf.tbi fsym)) in
  let s_jdd = Dataflow.Sink.attach (Flow.node (Qf.jdd fsym)) in
  let s_seq = Dataflow.Sink.attach (Flow.node (Qf.degree_sequence fsym)) in
  let s_sbi = Dataflow.Sink.attach (Flow.node (Qf.sbi fsym)) in
  let s_hist = Dataflow.Sink.attach (Flow.node (Qf.degree_histogram fsym)) in
  Flow.feed handle (List.map (fun e -> (e, 1.0)) records);
  let pp3 fmt (x, y, z) = Format.fprintf fmt "(%d,%d,%d)" x y z in
  let pp4 fmt (w, x, y, z) = Format.fprintf fmt "(%d,%d,%d,%d)" w x y z in
  let pp2 fmt (x, y) = Format.fprintf fmt "(%d,%d)" x y in
  check_wdata ~tol:0.0 pp3 "tbd batch=flow" (eval (Qb.tbd bsym)) (Dataflow.Sink.current s_tbd);
  check_wdata ~tol:0.0 pp4 "sbd batch=flow" (eval (Qb.sbd bsym)) (Dataflow.Sink.current s_sbd);
  check_wdata ~tol:0.0 Fmt.nop "tbi batch=flow" (eval (Qb.tbi bsym)) (Dataflow.Sink.current s_tbi);
  check_wdata ~tol:0.0 pp2 "jdd batch=flow" (eval (Qb.jdd bsym)) (Dataflow.Sink.current s_jdd);
  check_wdata ~tol:0.0 pp_int "degseq batch=flow" (eval (Qb.degree_sequence bsym))
    (Dataflow.Sink.current s_seq);
  check_wdata ~tol:0.0 Fmt.nop "sbi batch=flow" (eval (Qb.sbi bsym))
    (Dataflow.Sink.current s_sbi);
  check_wdata ~tol:0.0 pp_int "hist batch=flow" (eval (Qb.degree_histogram bsym))
    (Dataflow.Sink.current s_hist)

(* Every shipped query, lowered from its optimized plan into one engine as
   a fit lowers it, after a seeded swap walk whose moves are committed or
   aborted at random: each sink holds exactly what Batch computes from the
   unoptimized query on the walked graph — same support, same grid ints
   (so the same float bits). *)
module Plan = Wpinq_core.Plan
module Qp = Queries.Make (Plan)

let test_flow_equals_batch_after_walk () =
  let g = clustered_graph 5 in
  let engine = Dataflow.Engine.create () in
  let handle, fsym = Flow.input engine in
  let src : (int * int) Plan.t = Plan.source ~name:"sym" () in
  let ctx = Flow.Plans.create engine in
  Flow.Plans.bind ctx src fsym;
  let sink p = Dataflow.Sink.attach (Flow.node (Flow.Plans.lower ctx (Plan.optimize p))) in
  let ccdf = sink (Qp.degree_ccdf src) and seq = sink (Qp.degree_sequence src) in
  let nodes = sink (Qp.node_count src) and tbd1 = sink (Qp.tbd ~bucket:1 src) in
  let tbd20 = sink (Qp.tbd ~bucket:20 src) and tbi = sink (Qp.tbi src) in
  let sbi = sink (Qp.sbi src) and jdd = sink (Qp.jdd src) in
  Flow.feed handle (List.map (fun e -> (e, 1.0)) (Graph.directed_edges g));
  let mg = Graph.Mutable.of_graph g and rng = Prng.create 41 in
  let commits = ref 0 and aborts = ref 0 in
  for _ = 1 to 150 do
    match Graph.Mutable.propose_swap mg rng with
    | None -> ()
    | Some s ->
        Dataflow.Engine.begin_speculation engine;
        Flow.feed handle (Graph.Mutable.delta s);
        if Prng.int rng 2 = 0 then begin
          Dataflow.Engine.commit engine;
          Graph.Mutable.apply mg s;
          incr commits
        end
        else begin
          Dataflow.Engine.abort engine;
          incr aborts
        end
  done;
  Alcotest.(check bool) "walk committed and aborted" true (!commits > 0 && !aborts > 0);
  let _, bsym = sym_source (Graph.Mutable.to_graph mg) in
  let same name batch sink =
    let sorted d = List.sort compare (Wdata.to_grid_list d) in
    let expected = sorted (eval batch) and got = sorted (Dataflow.Sink.current sink) in
    Alcotest.(check int) (name ^ ": support") (List.length expected) (List.length got);
    Alcotest.(check bool) (name ^ ": bit for bit") true (expected = got)
  in
  same "degree_ccdf" (Qb.degree_ccdf bsym) ccdf;
  same "degree_sequence" (Qb.degree_sequence bsym) seq;
  same "node_count" (Qb.node_count bsym) nodes;
  same "tbd 1" (Qb.tbd ~bucket:1 bsym) tbd1;
  same "tbd 20" (Qb.tbd ~bucket:20 bsym) tbd20;
  same "tbi" (Qb.tbi bsym) tbi;
  same "sbi" (Qb.sbi bsym) sbi;
  same "jdd" (Qb.jdd bsym) jdd

(* Incremental maintenance under edge swaps stays exact. *)
let test_flow_queries_under_swaps () =
  let g = Gen.erdos_renyi ~n:16 ~m:36 (Prng.create 13) in
  let engine = Dataflow.Engine.create () in
  let handle, fsym = Flow.input engine in
  let s_tbi = Dataflow.Sink.attach (Flow.node (Qf.tbi fsym)) in
  let s_tbd = Dataflow.Sink.attach (Flow.node (Qf.tbd fsym)) in
  Flow.feed handle (List.map (fun e -> (e, 1.0)) (Graph.directed_edges g));
  let mg = Graph.Mutable.of_graph g in
  let rng = Prng.create 14 in
  for _ = 1 to 60 do
    match Graph.Mutable.propose_swap mg rng with
    | None -> ()
    | Some s ->
        Graph.Mutable.apply mg s;
        Flow.feed handle (Graph.Mutable.delta s)
  done;
  let now = Graph.Mutable.to_graph mg in
  check_close ~tol:1e-6 "tbi tracks swaps" (Graph.tbi_signal now)
    (Dataflow.Sink.weight s_tbi ());
  let expected_tbd =
    Wdata.of_list
      (List.map
         (fun (t, c) -> (t, float_of_int c *. Queries.tbd_triple_weight t))
         (Graph.triangles_by_degree now))
  in
  check_wdata ~tol:1e-6
    (fun fmt (x, y, z) -> Format.fprintf fmt "(%d,%d,%d)" x y z)
    "tbd tracks swaps" expected_tbd
    (Dataflow.Sink.current s_tbd)

(* Pipeline builders memoize on the physical identity of their input but
   hold it weakly: once a source is dropped, the collector takes it even
   though every builder below cached pipelines built from it. *)
let[@inline never] build_and_drop weak =
  let _, sym = sym_source (clustered_graph 11) in
  Weak.set weak 0 (Some sym);
  Alcotest.(check bool) "tbd memoized" true (Qb.tbd sym == Qb.tbd sym);
  Alcotest.(check bool) "bucketed tbd memoized" true (Qb.tbd ~bucket:2 sym == Qb.tbd ~bucket:2 sym);
  Alcotest.(check bool) "jdd memoized" true (Qb.jdd sym == Qb.jdd sym);
  ignore (Sys.opaque_identity (eval (Qb.tbi sym)))

let test_memo_releases_source () =
  let weak = Weak.create 1 in
  build_and_drop weak;
  Gc.full_major ();
  Alcotest.(check bool) "source collected" false (Weak.check weak 0)

let suite =
  [
    Alcotest.test_case "memo caches release their inputs" `Quick test_memo_releases_source;
    Alcotest.test_case "privacy costs (use counts)" `Quick test_privacy_costs;
    Alcotest.test_case "degrees" `Quick test_degrees_weights;
    Alcotest.test_case "degree ccdf" `Quick test_degree_ccdf_matches_graph;
    Alcotest.test_case "degree sequence" `Quick test_degree_sequence_matches_graph;
    Alcotest.test_case "nodes / counts" `Quick test_nodes_and_counts;
    Alcotest.test_case "path weights" `Quick test_paths_weights;
    Alcotest.test_case "jdd weights (Eq. 3)" `Quick test_jdd_weights;
    Alcotest.test_case "tbd weights (Eq. 4)" `Quick test_tbd_weights;
    Alcotest.test_case "tbd bucketing" `Quick test_tbd_bucketing;
    Alcotest.test_case "tbi weight (Eq. 8)" `Quick test_tbi_weight;
    Alcotest.test_case "sbd weights (Eq. 6)" `Quick test_sbd_weights;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    Alcotest.test_case "paths3 structure" `Quick test_paths3_structure;
    Alcotest.test_case "sbi signal" `Quick test_sbi_signal;
    Alcotest.test_case "sbi lattice vs random" `Quick test_sbi_separates_lattice_from_random;
    Alcotest.test_case "batch = flow on all queries" `Quick test_batch_flow_agreement;
    Alcotest.test_case "flow queries track swaps" `Quick test_flow_queries_under_swaps;
    Alcotest.test_case "flow = batch bit for bit after a walk" `Quick
      test_flow_equals_batch_after_walk;
  ]
