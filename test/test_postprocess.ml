module Isotonic = Wpinq_postprocess.Isotonic
module Gridpath = Wpinq_postprocess.Gridpath
module Prng = Wpinq_prng.Prng
open Helpers

(* O(n^3) reference for non-decreasing isotonic L2 with unit weights:
   fit(i) = max_{j<=i} min_{k>=i} mean(y[j..k]). *)
let reference_non_decreasing y =
  let n = Array.length y in
  let mean j k =
    let acc = ref 0.0 in
    for t = j to k do
      acc := !acc +. y.(t)
    done;
    !acc /. float_of_int (k - j + 1)
  in
  Array.init n (fun i ->
      let best = ref neg_infinity in
      for j = 0 to i do
        let inner = ref infinity in
        for k = i to n - 1 do
          inner := Float.min !inner (mean j k)
        done;
        best := Float.max !best !inner
      done;
      !best)

let is_monotone cmp a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if not (cmp a.(i) a.(i + 1)) then ok := false
  done;
  !ok

let test_pava_matches_reference () =
  let rng = Prng.create 1 in
  for _ = 1 to 50 do
    let n = 1 + Prng.int rng 12 in
    let y = Array.init n (fun _ -> Prng.float rng 10.0 -. 5.0) in
    let got = Isotonic.non_decreasing y in
    let expect = reference_non_decreasing y in
    Array.iteri (fun i e -> check_close ~tol:1e-6 (Printf.sprintf "fit[%d]" i) e got.(i)) expect
  done

let test_pava_monotone_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"pava output is monotone"
       QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_bound_exclusive 100.0))
       (fun l ->
         let y = Array.of_list l in
         is_monotone ( <= ) (Isotonic.non_decreasing y)
         && is_monotone ( >= ) (Isotonic.non_increasing y)))

let test_pava_idempotent_on_sorted () =
  let y = [| 5.0; 4.0; 4.0; 2.5; 1.0 |] in
  Alcotest.(check (array (float 1e-9))) "already non-increasing" y (Isotonic.non_increasing y)

let test_pava_mean_preserved () =
  let rng = Prng.create 2 in
  for _ = 1 to 20 do
    let y = Array.init 20 (fun _ -> Prng.float rng 10.0) in
    let fit = Isotonic.non_increasing y in
    let sum a = Array.fold_left ( +. ) 0.0 a in
    check_close ~tol:1e-6 "total preserved" (sum y) (sum fit)
  done

let test_pava_weighted () =
  (* A heavily-weighted violator drags its pool toward itself. *)
  let y = [| 0.0; 10.0 |] in
  let fit = Isotonic.non_increasing ~weights:[| 1.0; 99.0 |] y in
  Alcotest.(check bool) "pooled" true (Float.abs (fit.(0) -. fit.(1)) < 1e-9);
  check_close ~tol:1e-6 "weighted mean" 9.9 fit.(0)

(* ---- grid path ---- *)

let exact_inputs degrees =
  (* Noiseless v (degree sequence) and h (ccdf) for a degree multiset. *)
  let sorted = Array.copy degrees in
  Array.sort (fun a b -> compare b a) sorted;
  let dmax = if Array.length sorted = 0 then 0 else sorted.(0) in
  let v = Array.map float_of_int sorted in
  let h =
    Array.init dmax (fun i ->
        float_of_int (Array.length (Array.of_list (List.filter (fun d -> d > i) (Array.to_list sorted)))))
  in
  (sorted, v, h)

let test_gridpath_recovers_exact () =
  let degrees = [| 5; 5; 4; 3; 3; 3; 2; 1; 1; 0 |] in
  let sorted, v, h = exact_inputs degrees in
  let fit, cost = Gridpath.fit_cost ~v ~h in
  Alcotest.(check (array int)) "exact recovery" sorted fit;
  check_close ~tol:1e-9 "zero cost" 0.0 cost

let test_gridpath_output_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"gridpath output non-increasing"
       QCheck.(
         pair
           (list_of_size (QCheck.Gen.int_range 1 15) (float_bound_exclusive 8.0))
           (list_of_size (QCheck.Gen.int_range 1 8) (float_bound_exclusive 15.0)))
       (fun (vl, hl) ->
         let fit = Gridpath.fit ~v:(Array.of_list vl) ~h:(Array.of_list hl) in
         is_monotone ( >= ) fit))

(* Oracle: every monotone staircase from (0, ymax) to (xmax, 0), its cost
   summed step by step from the start, as a shortest-path search sums it.
   Returns the minimum cost, how many paths attain it bit for bit, and the
   sequence of one of them. *)
let enumerate_paths ~v ~h =
  let xmax = Array.length v and ymax = Array.length h in
  let best = ref infinity and ties = ref 0 and best_seq = ref [||] in
  let seq = Array.make xmax 0 in
  let rec go x y cost =
    if x = xmax && y = 0 then begin
      if cost < !best then begin
        best := cost;
        ties := 1;
        best_seq := Array.copy seq
      end
      else if cost = !best then incr ties
    end
    else begin
      if x < xmax then begin
        seq.(x) <- y;
        go (x + 1) y (cost +. Float.abs (v.(x) -. float_of_int y))
      end;
      if y > 0 then go x (y - 1) (cost +. Float.abs (h.(y - 1) -. float_of_int x))
    end
  in
  go 0 ymax 0.0;
  (!best, !ties, !best_seq)

let path_cost ~v ~h seq =
  (* Replays a fitted sequence as a staircase and sums it in path order. *)
  let xmax = Array.length v and ymax = Array.length h in
  let cost = ref 0.0 and y = ref ymax in
  for x = 0 to xmax do
    let target = if x < xmax then seq.(x) else 0 in
    while !y > target do
      cost := !cost +. Float.abs (h.(!y - 1) -. float_of_int x);
      decr y
    done;
    if x < xmax then cost := !cost +. Float.abs (v.(x) -. float_of_int !y)
  done;
  !cost

let gen_grid ~integer =
  QCheck2.Gen.(
    let* xmax = int_range 1 7 and* ymax = int_range 1 6 in
    let value bound =
      if integer then map float_of_int (int_bound bound) else float_range 0.0 (float_of_int bound)
    in
    let* v = array_size (return xmax) (value (ymax + 1)) in
    let* h = array_size (return ymax) (value (xmax + 1)) in
    return (v, h))

let print_grid (v, h) =
  let show a = String.concat "; " (Array.to_list (Array.map string_of_float a)) in
  Printf.sprintf "v = [|%s|], h = [|%s|]" (show v) (show h)

(* Continuous inputs: a unique optimum, so the DP must return exactly the
   enumerated sequence, at a bit-equal cost. *)
let test_gridpath_matches_enumeration =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"gridpath = exhaustive enumeration (continuous)"
       ~print:print_grid (gen_grid ~integer:false) (fun (v, h) ->
         let seq, cost = Gridpath.fit_cost ~v ~h in
         let best, ties, best_seq = enumerate_paths ~v ~h in
         Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float best)
         && (ties > 1 || seq = best_seq)))

(* Integer inputs tie often; the cost must still be bit-equal and the
   returned sequence must be one of the optimal staircases. *)
let test_gridpath_optimal_on_ties =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"gridpath optimal on integer ties" ~print:print_grid
       (gen_grid ~integer:true) (fun (v, h) ->
         let seq, cost = Gridpath.fit_cost ~v ~h in
         let best, _, _ = enumerate_paths ~v ~h in
         Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float best)
         && Int64.equal (Int64.bits_of_float (path_cost ~v ~h seq)) (Int64.bits_of_float best)))

let test_gridpath_denoises () =
  (* With moderate noise on both views, the joint fit lands closer to the
     truth than the raw noisy sequence. *)
  let rng = Prng.create 4 in
  let degrees = Array.init 60 (fun i -> max 0 (12 - (i / 4))) in
  let sorted, v, h = exact_inputs degrees in
  let noisy a = Array.map (fun x -> x +. Prng.laplace rng ~scale:2.0) a in
  let nv = noisy v and nh = noisy h in
  let fit = Gridpath.fit ~v:nv ~h:nh in
  let err a = Array.to_list a |> List.mapi (fun i x -> Float.abs (float_of_int sorted.(i) -. x))
              |> List.fold_left ( +. ) 0.0 in
  let fit_err = err (Array.map float_of_int fit) in
  let raw_err = err nv in
  Alcotest.(check bool)
    (Printf.sprintf "fit error %.1f < raw error %.1f" fit_err raw_err)
    true (fit_err < raw_err)

let suite =
  [
    Alcotest.test_case "pava vs reference" `Quick test_pava_matches_reference;
    test_pava_monotone_property;
    Alcotest.test_case "pava idempotent" `Quick test_pava_idempotent_on_sorted;
    Alcotest.test_case "pava preserves mean" `Quick test_pava_mean_preserved;
    Alcotest.test_case "pava weighted" `Quick test_pava_weighted;
    Alcotest.test_case "gridpath exact recovery" `Quick test_gridpath_recovers_exact;
    test_gridpath_output_monotone;
    test_gridpath_matches_enumeration;
    test_gridpath_optimal_on_ties;
    Alcotest.test_case "gridpath denoises" `Quick test_gridpath_denoises;
  ]
