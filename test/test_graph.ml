module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Fenwick = Wpinq_graph.Fenwick
module Io = Wpinq_graph.Io
module Prng = Wpinq_prng.Prng
open Helpers

let k4 () = Graph.of_edges [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
let c5 () = Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
let c4 () = Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0) ]
let star n = Graph.of_edges (List.init n (fun i -> (0, i + 1)))

let test_construction () =
  let g = Graph.of_edges [ (0, 1); (1, 0); (1, 1); (1, 2); (0, 1) ] in
  Alcotest.(check int) "dedup + no loops" 2 (Graph.m g);
  Alcotest.(check int) "n inferred" 3 (Graph.n g);
  Alcotest.(check bool) "has_edge both ways" true (Graph.has_edge g 2 1);
  Alcotest.(check bool) "no loop" false (Graph.has_edge g 1 1);
  let g2 = Graph.of_edges ~n:10 [ (0, 1) ] in
  Alcotest.(check int) "explicit n" 10 (Graph.n g2);
  Alcotest.(check int) "isolated vertex degree" 0 (Graph.degree g2 7)

let test_degrees () =
  let g = star 4 in
  Alcotest.(check int) "hub degree" 4 (Graph.degree g 0);
  Alcotest.(check int) "dmax" 4 (Graph.dmax g);
  Alcotest.(check int) "sum d^2" (16 + 4) (Graph.sum_deg_sq g);
  Alcotest.(check (array int)) "sequence desc" [| 4; 1; 1; 1; 1 |] (Graph.degree_sequence_desc g);
  (* ccdf: 5 vertices of degree > 0, 1 of degree > 1,2,3. *)
  Alcotest.(check (array int)) "ccdf" [| 5; 1; 1; 1 |] (Graph.degree_ccdf g)

let test_directed_edges () =
  let g = c4 () in
  Alcotest.(check int) "2m directed records" 8 (List.length (Graph.directed_edges g));
  Alcotest.(check int) "m undirected" 4 (List.length (Graph.edges g))

let test_triangles () =
  Alcotest.(check int) "K4 triangles" 4 (Graph.triangle_count (k4 ()));
  Alcotest.(check int) "C5 triangles" 0 (Graph.triangle_count (c5 ()));
  Alcotest.(check int) "star triangles" 0 (Graph.triangle_count (star 5));
  let tbd = Graph.triangles_by_degree (k4 ()) in
  Alcotest.(check (list (pair (triple int int int) int))) "K4 TbD" [ ((3, 3, 3), 4) ] tbd

let test_squares () =
  Alcotest.(check int) "C4 squares" 1 (Graph.square_count (c4 ()));
  Alcotest.(check int) "C5 squares" 0 (Graph.square_count (c5 ()));
  Alcotest.(check int) "K4 squares" 3 (Graph.square_count (k4 ()));
  match Graph.squares_by_degree (c4 ()) with
  | [ ((2, 2, 2, 2), 1) ] -> ()
  | other -> Alcotest.failf "unexpected C4 SbD (%d entries)" (List.length other)

let test_square_count_matches_by_degree () =
  let rng = Prng.create 42 in
  for _ = 1 to 10 do
    let g = Gen.erdos_renyi ~n:25 ~m:60 rng in
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Graph.squares_by_degree g) in
    Alcotest.(check int) "square totals agree" (Graph.square_count g) total
  done

let test_triangle_count_brute_force () =
  let rng = Prng.create 7 in
  for _ = 1 to 10 do
    let g = Gen.erdos_renyi ~n:20 ~m:50 rng in
    let n = Graph.n g in
    let brute = ref 0 in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        for c = b + 1 to n - 1 do
          if Graph.has_edge g a b && Graph.has_edge g b c && Graph.has_edge g a c then incr brute
        done
      done
    done;
    Alcotest.(check int) "triangles vs brute force" !brute (Graph.triangle_count g)
  done

let test_jdd () =
  let g = star 3 in
  (* 3 edges, all between degree 3 and degree 1. *)
  Alcotest.(check (list (pair (pair int int) int))) "star JDD" [ ((1, 3), 3) ]
    (Graph.joint_degree_counts g)

let test_assortativity () =
  (* Star graphs are maximally disassortative (r = -1). *)
  let r = Graph.assortativity (star 6) in
  check_close ~tol:1e-9 "star r" (-1.0) r;
  (* Two disjoint cliques of different sizes: perfectly assortative. *)
  let clique off k =
    List.concat_map (fun i -> List.init (k - i - 1) (fun j -> (off + i, off + i + j + 1))) (List.init k (fun i -> i))
  in
  let g = Graph.of_edges (clique 0 4 @ clique 4 3) in
  check_close ~tol:1e-9 "cliques r" 1.0 (Graph.assortativity g)

let test_clustering () =
  check_close "K4 clustering" 1.0 (Graph.clustering_coefficient (k4 ()));
  check_close "C5 clustering" 0.0 (Graph.clustering_coefficient (c5 ()))

let test_tbi_signal () =
  (* K3: one triangle, all degrees 2: signal = 3 * (1/2) = 1.5. *)
  let g = Graph.of_edges [ (0, 1); (1, 2); (2, 0) ] in
  check_close "K3 tbi" 1.5 (Graph.tbi_signal g);
  check_close "C5 tbi" 0.0 (Graph.tbi_signal (c5 ()));
  (* K4: 4 triangles, degrees 3: each contributes 3 * 1/3 = 1. *)
  check_close "K4 tbi" 4.0 (Graph.tbi_signal (k4 ()))

(* ---- Fenwick ---- *)

let test_fenwick_prefix_sums () =
  let t = Fenwick.create 10 in
  let reference = Array.make 10 0.0 in
  let rng = Prng.create 3 in
  for _ = 1 to 200 do
    let i = Prng.int rng 10 in
    let w = Prng.float rng 5.0 in
    Fenwick.set t i w;
    reference.(i) <- w;
    let k = Prng.int rng 11 in
    let expect = Array.fold_left ( +. ) 0.0 (Array.sub reference 0 k) in
    check_close ~tol:1e-9 "prefix sum" expect (Fenwick.prefix_sum t k)
  done;
  check_close ~tol:1e-9 "total" (Array.fold_left ( +. ) 0.0 reference) (Fenwick.total t)

let test_fenwick_sample_distribution () =
  let t = Fenwick.create 4 in
  Fenwick.set t 0 1.0;
  Fenwick.set t 1 3.0;
  Fenwick.set t 2 0.0;
  Fenwick.set t 3 6.0;
  let rng = Prng.create 5 in
  let counts = Array.make 4 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Fenwick.sample t rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never sampled" 0 counts.(2);
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "proportions" true
    (Float.abs (frac 0 -. 0.1) < 0.01
    && Float.abs (frac 1 -. 0.3) < 0.01
    && Float.abs (frac 3 -. 0.6) < 0.01)

(* ---- Generators ---- *)

let test_erdos_renyi () =
  let g = Gen.erdos_renyi ~n:100 ~m:250 (Prng.create 1) in
  Alcotest.(check int) "n" 100 (Graph.n g);
  Alcotest.(check int) "m exact" 250 (Graph.m g)

let test_erdos_renyi_p () =
  let g = Gen.erdos_renyi_p ~n:80 ~p:0.1 (Prng.create 2) in
  let expected = 0.1 *. float_of_int (80 * 79 / 2) in
  Alcotest.(check bool) "m near expectation" true
    (Float.abs (float_of_int (Graph.m g) -. expected) < 60.0)

let test_barabasi_albert () =
  let g = Gen.barabasi_albert ~n:500 ~m:4 (Prng.create 3) in
  Alcotest.(check int) "n" 500 (Graph.n g);
  (* Each of the n - m - 1 arrivals adds ~m edges (minus erased dups). *)
  Alcotest.(check bool) "m near m(n-m)" true
    (Graph.m g > 4 * 450 && Graph.m g <= 4 * 500);
  Alcotest.(check bool) "hub formed" true (Graph.dmax g > 15)

let test_barabasi_albert_alpha_skews () =
  (* Higher alpha concentrates degree: dmax and sum d^2 should rise. *)
  let stat alpha =
    let gs = List.init 3 (fun i -> Gen.barabasi_albert ~n:800 ~m:5 ~alpha (Prng.create (100 + i))) in
    List.fold_left (fun acc g -> acc + Graph.sum_deg_sq g) 0 gs
  in
  let low = stat 1.0 and high = stat 1.4 in
  Alcotest.(check bool) "alpha raises sum d^2" true (high > low)

let test_configuration_model () =
  let degrees = Array.of_list (List.init 60 (fun i -> 1 + (i mod 5))) in
  let g = Gen.configuration_model ~degrees (Prng.create 4) in
  Alcotest.(check int) "n" 60 (Graph.n g);
  (* Erased model: realized degree never exceeds requested, total close. *)
  let requested = Array.fold_left ( + ) 0 degrees in
  let realized = 2 * Graph.m g in
  Array.iteri
    (fun v d -> Alcotest.(check bool) "deg <= requested" true (Graph.degree g v <= d))
    degrees;
  Alcotest.(check bool) "mass mostly preserved" true
    (float_of_int realized > 0.85 *. float_of_int requested)

let test_clustered_generator () =
  let g = Gen.clustered ~n:300 ~community:12 ~p_in:0.6 ~extra:100 (Prng.create 5) in
  Alcotest.(check bool) "many triangles" true (Graph.triangle_count g > 100);
  Alcotest.(check bool) "clustered" true (Graph.clustering_coefficient g > 0.2)

let test_rewire_preserves_degrees_kills_triangles () =
  let g = Gen.clustered ~n:300 ~community:12 ~p_in:0.6 ~extra:100 (Prng.create 6) in
  let r = Rewire.randomize g (Prng.create 7) in
  Alcotest.(check (array int)) "degrees preserved" (Graph.degrees g) (Graph.degrees r);
  Alcotest.(check bool) "triangles collapse" true
    (Graph.triangle_count r * 4 < Graph.triangle_count g)

(* ---- Mutable graphs ---- *)

let test_mutable_swap_roundtrip () =
  let g = Gen.erdos_renyi ~n:50 ~m:120 (Prng.create 8) in
  let mg = Graph.Mutable.of_graph g in
  let rng = Prng.create 9 in
  let original = Graph.degrees g in
  let applied = ref [] in
  for _ = 1 to 500 do
    match Graph.Mutable.propose_swap mg rng with
    | None -> ()
    | Some s ->
        Graph.Mutable.apply mg s;
        applied := s :: !applied
  done;
  Alcotest.(check bool) "some swaps applied" true (List.length !applied > 50);
  Alcotest.(check (array int)) "degrees preserved" original
    (Graph.degrees (Graph.Mutable.to_graph mg));
  (* Undo everything: back to the original edge set. *)
  List.iter (fun s -> Graph.Mutable.apply mg (Graph.Mutable.invert s)) !applied;
  let restored = Graph.Mutable.to_graph mg in
  Alcotest.(check (list (pair int int))) "edges restored"
    (List.sort compare (Graph.edges g))
    (List.sort compare (Graph.edges restored))

(* [to_graph] fills adjacency rows straight from the edge arrays; it must
   agree with deduplicating the edge list through [of_edges], row for row,
   after any run of swaps. *)
let test_mutable_to_graph =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"mutable to_graph = of_edges after swaps"
       QCheck.(triple (int_range 2 40) (int_range 0 120) (int_range 0 300))
       (fun (n, m, swaps) ->
         let rng = Prng.create ((n * 1000) + m + swaps) in
         let g = Gen.erdos_renyi ~n ~m:(min m (n * (n - 1) / 2)) rng in
         let mg = Graph.Mutable.of_graph g in
         for _ = 1 to swaps do
           Option.iter (Graph.Mutable.apply mg) (Graph.Mutable.propose_swap mg rng)
         done;
         let got = Graph.Mutable.to_graph mg in
         let want = Graph.of_edges ~n (Array.to_list (Graph.Mutable.edge_array mg)) in
         Graph.n got = Graph.n want
         && Graph.m got = Graph.m want
         && List.for_all (fun v -> Graph.adj got v = Graph.adj want v) (List.init n Fun.id)))

(* The sorted-intersection triangle count and float-summed assortativity
   the degree-ordered count and exact sums replaced, as references. *)
let ref_triangles g =
  let c = ref 0 in
  for u = 0 to Graph.n g - 1 do
    Array.iter
      (fun v ->
        if u < v then
          Array.iter (fun w -> if w > v && Graph.has_edge g u w then incr c) (Graph.adj g v))
      (Graph.adj g u)
  done;
  !c

let ref_assortativity g =
  let sum_jk = ref 0.0 and sum_j = ref 0.0 and sum_j2 = ref 0.0 and cnt = ref 0 in
  for u = 0 to Graph.n g - 1 do
    let du = float_of_int (Graph.degree g u) in
    Array.iter
      (fun v ->
        let dv = float_of_int (Graph.degree g v) in
        sum_jk := !sum_jk +. (du *. dv);
        sum_j := !sum_j +. du;
        sum_j2 := !sum_j2 +. (du *. du);
        incr cnt)
      (Graph.adj g u)
  done;
  let c = float_of_int !cnt in
  if c = 0.0 then Float.nan
  else
    let mean = !sum_j /. c in
    let num = (!sum_jk /. c) -. (mean *. mean) in
    let den = (!sum_j2 /. c) -. (mean *. mean) in
    if Float.abs den < 1e-12 then Float.nan else num /. den

(* Random graphs, stars and cliques (each with a random graph's edges laid
   over it), walked by swaps: the graph's and the edge arrays' counts and
   assortativity bits equal the references. *)
let test_trace_stats =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"degree-ordered triangles and exact assortativity"
       QCheck.(quad (int_range 0 2) (int_range 2 30) (int_range 0 90) (int_range 0 50))
       (fun (shape, n, m, swaps) ->
         let rng = Prng.create ((shape * 100_000) + (n * 1000) + m + swaps) in
         let base =
           match shape with
           | 0 -> []
           | 1 -> List.init (n - 1) (fun i -> (0, i + 1))
           | _ -> List.concat (List.init n (fun u -> List.init u (fun v -> (v, u))))
         in
         let extra = Graph.edges (Gen.erdos_renyi ~n ~m:(min m (n * (n - 1) / 2)) rng) in
         let mg = Graph.Mutable.of_graph (Graph.of_edges ~n (base @ extra)) in
         let bits = Int64.bits_of_float in
         let agree () =
           let g = Graph.Mutable.to_graph mg in
           let t = ref_triangles g and r = bits (ref_assortativity g) in
           Graph.triangle_count g = t
           && Graph.Mutable.triangle_count mg = t
           && bits (Graph.assortativity g) = r
           && bits (Graph.Mutable.assortativity mg) = r
         in
         agree ()
         && List.for_all
              (fun _ ->
                Option.iter (Graph.Mutable.apply mg) (Graph.Mutable.propose_swap mg rng);
                agree ())
              (List.init swaps Fun.id)))

let test_mutable_swap_delta () =
  let s =
    Graph.Mutable.{ remove = ((1, 2), (3, 4)); add = ((1, 4), (3, 2)) }
  in
  let d = Graph.Mutable.delta s in
  Alcotest.(check int) "8 record changes" 8 (List.length d);
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 d in
  check_close "weight preserved" 0.0 total;
  Alcotest.(check bool) "contains both orientations" true
    (List.mem ((2, 1), -1.0) d && List.mem ((4, 1), 1.0) d)

let test_io_roundtrip () =
  let g = Gen.erdos_renyi ~n:40 ~m:80 (Prng.create 10) in
  let path = Filename.temp_file "wpinq_graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write g path;
      let g' = Io.read path in
      Alcotest.(check int) "n" (Graph.n g) (Graph.n g');
      Alcotest.(check (list (pair int int))) "edges"
        (List.sort compare (Graph.edges g))
        (List.sort compare (Graph.edges g')))

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "degrees/ccdf" `Quick test_degrees;
    Alcotest.test_case "directed edges" `Quick test_directed_edges;
    Alcotest.test_case "triangles" `Quick test_triangles;
    Alcotest.test_case "squares" `Quick test_squares;
    Alcotest.test_case "square count consistency" `Quick test_square_count_matches_by_degree;
    Alcotest.test_case "triangles vs brute force" `Quick test_triangle_count_brute_force;
    Alcotest.test_case "joint degrees" `Quick test_jdd;
    Alcotest.test_case "assortativity" `Quick test_assortativity;
    Alcotest.test_case "clustering" `Quick test_clustering;
    Alcotest.test_case "tbi signal" `Quick test_tbi_signal;
    Alcotest.test_case "fenwick prefix sums" `Quick test_fenwick_prefix_sums;
    Alcotest.test_case "fenwick sampling" `Quick test_fenwick_sample_distribution;
    Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
    Alcotest.test_case "erdos-renyi p" `Quick test_erdos_renyi_p;
    Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
    Alcotest.test_case "barabasi-albert alpha" `Quick test_barabasi_albert_alpha_skews;
    Alcotest.test_case "configuration model" `Quick test_configuration_model;
    Alcotest.test_case "clustered generator" `Quick test_clustered_generator;
    Alcotest.test_case "rewire" `Quick test_rewire_preserves_degrees_kills_triangles;
    Alcotest.test_case "mutable swap roundtrip" `Quick test_mutable_swap_roundtrip;
    Alcotest.test_case "mutable swap delta" `Quick test_mutable_swap_delta;
    test_mutable_to_graph;
    test_trace_stats;
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
  ]
