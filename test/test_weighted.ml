(* Unit tests: the paper's worked examples (Section 2) computed exactly.
   Property tests: stability of every transformation (Definition 2). *)

module Wdata = Wpinq_weighted.Wdata
module Ops = Wpinq_weighted.Ops
open Helpers

(* The running examples of Section 2.1. *)
let ex_a () = Wdata.of_list [ (1, 0.75); (2, 2.0); (3, 1.0) ]
let ex_b () = Wdata.of_list [ (1, 3.0); (4, 2.0) ]

let test_basics () =
  let a = ex_a () in
  check_close "A(2)" 2.0 (Wdata.weight a 2);
  check_close "A(0)" 0.0 (Wdata.weight a 0);
  check_close "norm" 3.75 (Wdata.norm a);
  check_close "dist A B" (2.25 +. 2.0 +. 1.0 +. 2.0) (Wdata.dist a (ex_b ()));
  Alcotest.(check int) "support" 3 (Wdata.support_size a)

(* Weights are rounded to the 2^-40 grid and summed exactly: a record that
   nets to exactly zero there leaves the support (0.1 + 0.2 - 0.3 does,
   though it is 5.6e-17 in floats), and any other weight stays, one grid
   unit included. *)
let test_of_list_accumulates () =
  let unit = 0x1p-40 in
  let d =
    Wdata.of_list
      [ (1, 1.0); (1, 0.5); (2, -0.25); (2, 0.25); (3, 0.1); (3, 0.2); (3, -0.3); (4, unit);
        (5, 1.0); (5, unit -. 1.0) ]
  in
  check_close "accumulated" 1.5 (Wdata.weight d 1);
  Alcotest.(check (list int)) "cancelled records dropped" [ 1; 4; 5 ]
    (List.map fst (Wdata.to_sorted_list d));
  Alcotest.(check (float 0.0)) "one grid unit stays" unit (Wdata.weight d 4);
  Alcotest.(check (float 0.0)) "one grid unit left over" unit (Wdata.weight d 5)

let test_update_and_add () =
  let d = Wdata.of_list [ (1, 1.0) ] in
  let d = Wdata.add d 1 (-1.0) in
  Alcotest.(check int) "cancel removes" 0 (Wdata.support_size d);
  let d2 = Wdata.update (ex_a ()) [ (1, 0.25); (9, 1.0) ] in
  check_close "update bump" 1.0 (Wdata.weight d2 1);
  check_close "update insert" 1.0 (Wdata.weight d2 9)

let test_scale_total () =
  let d = Wdata.scale (-2.0) (ex_a ()) in
  check_close "scaled" (-4.0) (Wdata.weight d 2);
  check_close "total" (-7.5) (Wdata.total d);
  check_close "norm abs" 7.5 (Wdata.norm d)

(* Section 2.4: Where with x^2 < 5, Select with x mod 2. *)
let test_where_paper () =
  let got = Ops.where (fun x -> x * x < 5) (ex_a ()) in
  check_wdata pp_int "where" (Wdata.of_list [ (1, 0.75); (2, 2.0) ]) got

let test_select_paper () =
  let got = Ops.select (fun x -> x mod 2) (ex_a ()) in
  check_wdata pp_int "select accumulates" (Wdata.of_list [ (0, 2.0); (1, 1.75) ]) got

(* Section 2.4: SelectMany with f(x) = {1..x}, unit weights. *)
let test_select_many_paper () =
  let got = Ops.select_many_list (fun x -> List.init x (fun i -> i + 1)) (ex_a ()) in
  let third = 1.0 /. 3.0 in
  check_wdata pp_int "select_many"
    (Wdata.of_list [ (1, 0.75 +. 1.0 +. third); (2, 1.0 +. third); (3, third) ])
    got

let test_select_many_norm_le_one () =
  (* A record mapping to sub-unit total weight is not scaled up. *)
  let a = Wdata.of_list [ (1, 2.0) ] in
  let got = Ops.select_many (fun _ -> [ (10, 0.25) ]) a in
  check_wdata pp_int "no upscaling" (Wdata.of_list [ (10, 0.5) ]) got

(* Section 2.5's example: grouping C by parity. *)
let test_group_by_paper () =
  let c = Wdata.of_list [ (1, 0.75); (2, 2.0); (3, 1.0); (4, 2.0); (5, 2.0) ] in
  let got = Ops.group_by ~key:(fun x -> x mod 2) ~reduce:(fun l -> List.sort compare l) c in
  let expected =
    Wdata.of_list
      [
        ((1, [ 1; 3; 5 ]), 0.375);
        ((1, [ 3; 5 ]), 0.125);
        ((1, [ 5 ]), 0.5);
        ((0, [ 2; 4 ]), 1.0);
      ]
  in
  let pp fmt (k, l) =
    Format.fprintf fmt "(%d,[%s])" k (String.concat ";" (List.map string_of_int l))
  in
  check_wdata pp "group_by parity" expected got

let test_group_by_unit_weights_halved () =
  (* Grouping unit-weight records yields just the full group at weight 1/2
     (the degree computation of Section 2.5). *)
  let edges = Wdata.of_records [ (0, 1); (0, 2); (0, 3); (5, 1) ] in
  let got = Ops.group_by ~key:fst ~reduce:List.length edges in
  check_wdata
    (fun fmt (k, n) -> Format.fprintf fmt "(%d,%d)" k n)
    "degrees"
    (Wdata.of_list [ ((0, 3), 0.5); ((5, 1), 0.5) ])
    got

let test_union_intersect_concat_except_paper () =
  let a = ex_a () and b = ex_b () in
  check_wdata pp_int "concat"
    (Wdata.of_list [ (1, 3.75); (2, 2.0); (3, 1.0); (4, 2.0) ])
    (Ops.concat a b);
  check_wdata pp_int "intersect" (Wdata.of_list [ (1, 0.75) ]) (Ops.intersect a b);
  check_wdata pp_int "union"
    (Wdata.of_list [ (1, 3.0); (2, 2.0); (3, 1.0); (4, 2.0) ])
    (Ops.union a b);
  check_wdata pp_int "except"
    (Wdata.of_list [ (1, -2.25); (2, 2.0); (3, 1.0); (4, -2.0) ])
    (Ops.except a b)

(* Section 2.7's Join example.  (The paper's printed numbers use A(1)=0.5 —
   a typo against its own Section 2.1 definition of A; we check the values
   Eq. (1) actually yields for A(1)=0.75.) *)
let test_join_paper () =
  let a = ex_a () and b = ex_b () in
  let got =
    Ops.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 2) ~reduce:(fun x y -> (x, y)) a b
  in
  (* Even: A0={2:2}, B0={4:2}: denom 4, (2,4) -> 2*2/4 = 1.
     Odd: A1={1:.75,3:1}, B1={1:3}: denom 4.75. *)
  let expected =
    Wdata.of_list
      [ ((2, 4), 1.0); ((1, 1), 0.75 *. 3.0 /. 4.75); ((3, 1), 3.0 /. 4.75) ]
  in
  let pp fmt (x, y) = Format.fprintf fmt "(%d,%d)" x y in
  check_wdata pp "join" expected got

let test_join_paths_weights () =
  (* Length-two paths a-b-c through vertex b get weight 1/(2 d_b)
     (Section 2.7, "Join and paths") on a symmetric directed edge set. *)
  let edges = [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 0); (0, 2) ] in
  let e = Wdata.of_records edges in
  let paths = Ops.join ~kl:snd ~kr:fst ~reduce:(fun (a, b) (_, c) -> (a, b, c)) e e in
  (* Triangle on 3 vertices: every vertex has degree 2, every path weight 1/4. *)
  Wdata.iter
    (fun (_a, _b, _c) w -> check_close "path weight 1/(2db)" 0.25 w)
    paths;
  (* Includes the degenerate a-b-a paths; 3 vertices * 2 choices of (neighbor)² = 12 paths. *)
  Alcotest.(check int) "path count" 12 (Wdata.support_size paths)

let test_shave_paper () =
  let got = Ops.shave_const 1.0 (ex_a ()) in
  let expected =
    Wdata.of_list [ ((1, 0), 0.75); ((2, 0), 1.0); ((2, 1), 1.0); ((3, 0), 1.0) ]
  in
  let pp fmt (x, i) = Format.fprintf fmt "(%d,%d)" x i in
  check_wdata pp "shave" expected got

let test_shave_select_inverse () =
  (* Section 2.8: Select(fst) inverts Shave. *)
  let a = ex_a () in
  let got = Ops.select fst (Ops.shave_const 1.0 a) in
  check_wdata pp_int "select o shave = id" a got

let test_shave_custom_sequence () =
  let a = Wdata.of_list [ (7, 2.0) ] in
  let got = Ops.shave (fun _ -> List.to_seq [ 0.5; 1.0; 10.0 ]) a in
  let pp fmt (x, i) = Format.fprintf fmt "(%d,%d)" x i in
  check_wdata pp "clipped slabs"
    (Wdata.of_list [ ((7, 0), 0.5); ((7, 1), 1.0); ((7, 2), 0.5) ])
    got

let test_shave_emissions_stop_conditions () =
  Alcotest.(check (list (pair int (float 1e-9))))
    "stops at nonpositive slab"
    [ (0, 1.0) ]
    (Ops.shave_emissions (List.to_seq [ 1.0; 0.0; 5.0 ]) 3.0);
  Alcotest.(check (list (pair int (float 1e-9))))
    "empty for nonpositive weight" []
    (Ops.shave_emissions (List.to_seq [ 1.0 ]) (-2.0))

(* Edges-to-nodes pipeline of Section 2.8: each node ends with weight 0.5. *)
let test_edges_to_nodes () =
  let edges = Wdata.of_records [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let nodes =
    Ops.select fst
      (Ops.where
         (fun (_, i) -> i = 0)
         (Ops.shave_const 0.5 (Ops.select_many_list (fun (a, b) -> [ a; b ]) edges)))
  in
  check_wdata pp_int "nodes at 0.5"
    (Wdata.of_list [ (0, 0.5); (1, 0.5); (2, 0.5); (3, 0.5) ])
    nodes

let test_distinct () =
  let d = Wdata.of_list [ (1, 2.5); (2, 0.4); (3, -1.0) ] in
  check_wdata pp_int "caps into [0,1]"
    (Wdata.of_list [ (1, 1.0); (2, 0.4) ])
    (Ops.distinct d);
  check_wdata pp_int "custom bound"
    (Wdata.of_list [ (1, 2.0); (2, 0.4) ])
    (Ops.distinct ~bound:2.0 d)

(* ---- Stability properties (Definition 2) ---- *)

let unary_stable name op =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name
       QCheck.(pair (wdata_arb ()) (wdata_arb ()))
       (fun (a, a') -> Wdata.dist (op a) (op a') <= Wdata.dist a a' +. 1e-9))

let binary_stable name op =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name
       QCheck.(
         pair (pair (wdata_arb ()) (wdata_arb ())) (pair (wdata_arb ()) (wdata_arb ())))
       (fun ((a, a'), (b, b')) ->
         Wdata.dist (op a b) (op a' b')
         <= Wdata.dist a a' +. Wdata.dist b b' +. 1e-9))

let stability_suite =
  [
    unary_stable "stability: select" (Ops.select (fun x -> x mod 3));
    unary_stable "stability: where" (Ops.where (fun x -> x mod 2 = 0));
    unary_stable "stability: select_many"
      (Ops.select_many (fun x -> List.init (x mod 4) (fun i -> (i, 0.5 +. float_of_int i))));
    unary_stable "stability: group_by"
      (Ops.group_by ~key:(fun x -> x mod 2) ~reduce:(fun l -> List.sort compare l));
    unary_stable "stability: shave" (Ops.shave_const 0.7);
    unary_stable "stability: distinct" (Ops.distinct ~bound:1.0);
    binary_stable "stability: union" Ops.union;
    binary_stable "stability: intersect" Ops.intersect;
    binary_stable "stability: concat" Ops.concat;
    binary_stable "stability: except" Ops.except;
    binary_stable "stability: join"
      (Ops.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 2) ~reduce:(fun x y -> (x, y)));
  ]

(* ---- Differential: the accumulator against the sort-then-add oracle ---- *)

module Grid = Wpinq_weighted.Grid

(* The reference accumulation: sort the grid emissions by record, add each
   record's as ints, drop the records that net to zero.  Returns the
   support sorted by record, with its grid weights. *)
let oracle emissions =
  let h = Hashtbl.create 8 in
  List.iter
    (fun (x, w) -> Hashtbl.replace h x (w + Option.value ~default:0 (Hashtbl.find_opt h x)))
    (List.sort compare emissions);
  List.sort compare (Hashtbl.fold (fun x w acc -> if w = 0 then acc else (x, w) :: acc) h [])

let bits d = List.sort compare (Wdata.to_grid_list d)
let rounded l = List.map (fun (x, w) -> (x, Grid.of_float w)) l

(* Weights that stress the summation order: one or two grid units, signed
   zeros, and mixed magnitudes whose partial sums cancel mid-fold
   (0.1 + 0.2 − 0.3, 1e5 + 1 − 1e5). *)
let weight_gen =
  QCheck.Gen.(
    oneof
      [
        float_range (-3.0) 3.0;
        oneofl
          [
            0.0; -0.0; 1e-12; -1e-12; 5e-13; -5e-13; 1.5e-12; -1.5e-12; 0.1; 0.2; -0.3; 1.0;
            -1.0; 1e5; -1e5; 3.0;
          ];
      ])

(* Emission lists with heavy duplication: up to 40 emissions over
   [records] records. *)
let emissions_arb records =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map (fun (x, w) -> Printf.sprintf "(%d, %h)" x w) l))
    QCheck.Gen.(list_size (int_range 0 40) (pair (int_range 0 (records - 1)) weight_gen))

(* Any order and any grouping of the same emissions builds the same
   dataset: reversed, and folded in as two [update]s. *)
let test_of_list_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"of_list = sort-then-add oracle, bit for bit"
       (emissions_arb 6) (fun l ->
         let reference = oracle (rounded l) and half = List.length l / 2 in
         let l1 = List.filteri (fun i _ -> i < half) l
         and l2 = List.filteri (fun i _ -> i >= half) l in
         bits (Wdata.of_list l) = reference
         && bits (Wdata.of_list (List.rev l)) = reference
         && bits (Wdata.update (Wdata.of_list l2) l1) = reference))

(* Reference grid emissions of each operator; [oracle] of these is the
   reference output.  Inputs are read as grid ints: a weight above 2^13 has
   more significant bits than a float holds. *)
let grid a = Wdata.to_grid_list a
let fl = Grid.to_float
let ref_select f a = List.map (fun (x, w) -> (f x, w)) (grid a)

let ref_select_many f a =
  List.concat_map
    (fun (x, w) ->
      let produced = f x in
      let n = List.fold_left (fun acc (_, wy) -> acc +. Float.abs wy) 0.0 produced in
      let scale = fl w /. Float.max 1.0 n in
      List.map (fun (y, wy) -> (y, Grid.of_float (wy *. scale))) produced)
    (grid a)

let parts key a =
  let parts = Hashtbl.create 16 in
  List.iter
    (fun (x, w) ->
      Hashtbl.replace parts (key x) ((x, w) :: Option.value ~default:[] (Hashtbl.find_opt parts (key x))))
    (grid a);
  Hashtbl.fold (fun k part acc -> (k, part) :: acc) parts []

(* GroupBy's prefix emissions over a list: sort by non-increasing weight
   (record order breaking ties), emit each prefix with half the drop in
   weight at its boundary. *)
let ref_group_emissions part =
  let rec go prefix = function
    | [] -> []
    | (x, w) :: rest ->
        let prefix = x :: prefix in
        let w_next = match rest with (_, w') :: _ -> w' | [] -> 0.0 in
        let emitted = (w -. w_next) /. 2.0 and tail = go prefix rest in
        if emitted > 1e-12 then (List.rev prefix, emitted) :: tail else tail
  in
  go [] (List.sort (fun (x, wx) (y, wy) -> match compare wy wx with 0 -> compare x y | c -> c) part)

let ref_group_by ~key ~reduce a =
  List.concat_map
    (fun (k, part) ->
      let part = List.filter_map (fun (x, w) -> if w > 0 then Some (x, fl w) else None) part in
      List.map
        (fun (members, w) -> ((k, reduce members), Grid.of_float w))
        (ref_group_emissions part))
    (parts key a)

let ref_merge f a b =
  let g d x = Option.value ~default:0 (List.assoc_opt x (grid d)) in
  List.map (fun (x, wa) -> (x, f wa (g b x))) (grid a)
  @ List.filter_map (fun (x, wb) -> if Wdata.mem a x then None else Some (x, f 0 wb)) (grid b)

let ref_join ~kl ~kr ~reduce a b =
  let norm part = List.fold_left (fun acc (_, w) -> acc + abs w) 0 part in
  let pb = parts kr b in
  List.concat_map
    (fun (k, xs) ->
      match List.assoc_opt k pb with
      | None -> []
      | Some ys ->
          let denom = norm xs + norm ys in
          if denom > 0 then
            List.concat_map
              (fun (x, wx) ->
                List.map
                  (fun (y, wy) -> (reduce x y, Grid.of_float (fl wx *. fl wy /. fl denom)))
                  ys)
              xs
          else [])
    (parts kl a)

let ref_shave f a =
  List.concat_map
    (fun (x, w) ->
      if w > 0 then
        List.map (fun (i, wi) -> ((x, i), Grid.of_float wi)) (Ops.shave_emissions (f x) (fl w))
      else [])
    (grid a)

(* Inputs span 16 records, and the operators below fold them onto fewer, so
   output records collect enough emissions for the summation order to show. *)
let differential name op reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:("differential: " ^ name)
       (QCheck.pair (emissions_arb 16) (emissions_arb 16)) (fun (la, lb) ->
         let a = Wdata.of_list la and b = Wdata.of_list lb in
         bits (op a b) = oracle (reference a b)))

let produce x = [ (x mod 2, 0.1 *. float_of_int x); (x mod 3, -0.3); (x mod 2, 1e-12) ]
let slabs x = List.to_seq [ 0.5; 1e-12 *. float_of_int x; 2.0 ]
let sum_mod3 l = List.fold_left ( + ) 0 l mod 3

let differential_suite =
  [
    differential "select" (fun a _ -> Ops.select (fun x -> x mod 3) a) (fun a _ ->
        ref_select (fun x -> x mod 3) a);
    differential "where"
      (fun a _ -> Ops.where (fun x -> x mod 2 = 0) a)
      (fun a _ -> List.filter (fun (x, _) -> x mod 2 = 0) (grid a));
    differential "select_many" (fun a _ -> Ops.select_many produce a) (fun a _ ->
        ref_select_many produce a);
    differential "group_by"
      (fun a _ -> Ops.group_by ~key:(fun x -> x mod 2) ~reduce:sum_mod3 a)
      (fun a _ -> ref_group_by ~key:(fun x -> x mod 2) ~reduce:sum_mod3 a);
    differential "union" Ops.union (ref_merge Int.max);
    differential "intersect" Ops.intersect (ref_merge Int.min);
    differential "concat" Ops.concat (ref_merge ( + ));
    differential "except" Ops.except (ref_merge ( - ));
    differential "join"
      (Ops.join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3) ~reduce:(fun x y -> (x + y) mod 4))
      (ref_join ~kl:(fun x -> x mod 2) ~kr:(fun y -> y mod 3) ~reduce:(fun x y -> (x + y) mod 4));
    differential "shave" (fun a _ -> Ops.shave slabs a) (fun a _ -> ref_shave slabs a);
    differential "distinct"
      (fun a _ -> Ops.distinct ~bound:0.7 a)
      (fun a _ ->
        let bound = Grid.of_float 0.7 in
        List.map (fun (x, w) -> (x, Int.max 0 (Int.min bound w))) (grid a));
  ]

(* ---- Model: the support as an association list ---- *)

(* [Wdata] against an association list in first-emission order, whose
   records are equal when [compare] returns 0 (a stdlib [Hashtbl]'s
   equality: every nan is one record, and -0. is 0.) and whose first
   emission stays the record kept.  Results are compared through [bits],
   which tells nan payloads and signed zeros apart. *)
module Model = struct
  let find m x = List.find_opt (fun (y, _) -> compare x y = 0) m
  let weight m x = match find m x with Some (_, w) -> w | None -> 0
  let nonzero m = List.filter (fun (_, w) -> w <> 0) m

  let build emissions =
    nonzero
      (List.fold_left
         (fun m (x, w) ->
           if find m x = None then m @ [ (x, w) ]
           else List.map (fun (y, v) -> if compare x y = 0 then (y, v + w) else (y, v)) m)
         [] emissions)

  let map f m = nonzero (List.map (fun (x, w) -> (x, f x w)) m)

  let merge f a b =
    nonzero
      (List.map (fun (x, wa) -> (x, f wa (weight b x))) a
      @ List.filter_map (fun (x, wb) -> if find a x = None then Some (x, f 0 wb) else None) b)

  let dist a b = List.fold_left (fun acc (_, w) -> acc + abs w) 0 (merge ( - ) a b)
end

let of_grid emissions = Wdata.build 0 (fun emit -> List.iter (fun (x, w) -> emit x w) emissions)

(* The same emissions folded into a stdlib [Hashtbl]. *)
let hashtbl_support emissions =
  let h = Hashtbl.create 8 in
  List.iter
    (fun (x, w) -> Hashtbl.replace h x (w + Option.value ~default:0 (Hashtbl.find_opt h x)))
    emissions;
  Hashtbl.fold (fun x w acc -> if w = 0 then acc else (x, w) :: acc) h []

let wdata_model ~name ~print ~bits gen =
  let emissions =
    QCheck.Gen.(list_size (int_range 0 24) (pair gen (oneofl [ -2; -1; 1; 2; 3; 1 lsl 40 ])))
  in
  let delta = QCheck.Gen.(list_size (int_range 0 4) (pair gen (oneofl [ -1.0; 0.5; 0x1p-40 ]))) in
  let show l =
    String.concat "; " (List.map (fun (x, w) -> Printf.sprintf "(%s, %s)" (print x) w) l)
  in
  let print (la, lb, d) =
    Printf.sprintf "a = [%s]\nb = [%s]\ndelta = [%s]"
      (show (List.map (fun (x, w) -> (x, string_of_int w)) la))
      (show (List.map (fun (x, w) -> (x, string_of_int w)) lb))
      (show (List.map (fun (x, w) -> (x, Printf.sprintf "%h" w)) d))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:("wdata model: " ^ name)
       (QCheck.make ~print QCheck.Gen.(triple emissions emissions delta))
       (fun (la, lb, delta) ->
         let same d m =
           let got = List.map (fun (x, w) -> (bits x, w)) (Wdata.to_grid_list d) in
           got = List.map (fun (x, w) -> (bits x, w)) m
         in
         let lookups d m =
           List.for_all
             (fun (x, _) ->
               Wdata.weight d x = Grid.to_float (Model.weight m x)
               && Wdata.mem d x = (Model.find m x <> None))
             (la @ lb)
         in
         let a = of_grid la and b = of_grid lb and ma = Model.build la and mb = Model.build lb in
         let empty = Wdata.empty () in
         let keep x = Hashtbl.hash (bits x) land 1 = 0 in
         let hashtbl = hashtbl_support la in
         same a ma && same b mb && lookups a ma && lookups b mb
         && Wdata.support_size a = List.length ma
         && List.length hashtbl = List.length ma
         && List.for_all (fun (x, w) -> Model.weight ma x = w) hashtbl
         && same (Wdata.filter (fun x _ -> keep x) a) (List.filter (fun (x, _) -> keep x) ma)
         && same (Wdata.map_grid (fun _ w -> w - 1) a) (Model.map (fun _ w -> w - 1) ma)
         && same (Wdata.merge_grid Grid.sub a b) (Model.merge ( - ) ma mb)
         && same (Wdata.merge_grid Int.min a b) (Model.merge Int.min ma mb)
         && same (Wdata.merge_grid Grid.add b a) (Model.merge ( + ) mb ma)
         && same (Wdata.merge_grid Grid.add a empty) ma
         && same (Wdata.merge_grid Grid.sub empty b) (Model.map (fun _ w -> -w) mb)
         && Wdata.dist a b = Grid.to_float (Model.dist ma mb)
         && Wdata.dist a empty = Wdata.norm a
         && same (Wdata.update a delta)
              (Model.build (ma @ List.map (fun (x, w) -> (x, Grid.of_float w)) delta))
         && lookups (Wdata.filter (fun x _ -> keep x) a) (List.filter (fun (x, _) -> keep x) ma)))

(* Floats whose [compare] classes hold several bit patterns: nans of two
   payloads and both signs, and both zeros. *)
let float_gen =
  QCheck.Gen.oneofl
    [ nan; -.nan; Int64.float_of_bits 0x7FF8_0000_0000_0001L; 0.0; -0.0; 1.0; -1.0; infinity; 0.5 ]

let float_bits = Int64.bits_of_float

let wdata_model_suite =
  [
    wdata_model ~name:"int records" ~print:string_of_int ~bits:Fun.id QCheck.Gen.(int_range 0 9);
    wdata_model ~name:"float records" ~print:(Printf.sprintf "%h") ~bits:float_bits float_gen;
    wdata_model ~name:"flat float array records"
      ~print:(fun a -> String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)))
      ~bits:(fun a -> Array.map float_bits a)
      QCheck.Gen.(map Array.of_list (list_size (int_range 0 2) float_gen));
    wdata_model ~name:"tuples holding floats"
      ~print:(fun (i, f) -> Printf.sprintf "(%d, %h)" i f)
      ~bits:(fun (i, f) -> (i, float_bits f))
      QCheck.Gen.(pair (int_range 0 2) float_gen);
  ]

(* The support is listed in the order records were first emitted in: a
   record that nets to zero mid-way and comes back keeps its first place,
   one that ends at zero leaves. *)
let test_first_emission_order () =
  let d =
    Wdata.of_list
      [ (5, 1.0); (3, 1.0); (5, -1.0); (9, 1.0); (4, 1.0); (5, 2.0); (4, -1.0); (3, 1.0) ]
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "first-emission order" [ (5, 2.0); (3, 2.0); (9, 1.0) ] (Wdata.to_list d);
  Alcotest.(check (list int))
    "filter keeps it" [ 5; 9 ]
    (List.map fst (Wdata.to_grid_list (Wdata.filter (fun x _ -> x <> 3) d)));
  Alcotest.(check (list int))
    "merge: first input's records, then the second's new ones" [ 5; 3; 9; 1; 4 ]
    (List.map fst
       (Wdata.to_grid_list (Ops.concat d (Wdata.of_list [ (1, 1.0); (9, 1.0); (4, 1.0) ]))))

let suite =
  [
    Alcotest.test_case "wdata basics" `Quick test_basics;
    Alcotest.test_case "of_list accumulates" `Quick test_of_list_accumulates;
    Alcotest.test_case "update/add" `Quick test_update_and_add;
    Alcotest.test_case "scale/total" `Quick test_scale_total;
    Alcotest.test_case "where (paper)" `Quick test_where_paper;
    Alcotest.test_case "select (paper)" `Quick test_select_paper;
    Alcotest.test_case "select_many (paper)" `Quick test_select_many_paper;
    Alcotest.test_case "select_many no upscale" `Quick test_select_many_norm_le_one;
    Alcotest.test_case "group_by (paper)" `Quick test_group_by_paper;
    Alcotest.test_case "group_by unit weights" `Quick test_group_by_unit_weights_halved;
    Alcotest.test_case "union/intersect/concat/except (paper)" `Quick
      test_union_intersect_concat_except_paper;
    Alcotest.test_case "join (paper)" `Quick test_join_paper;
    Alcotest.test_case "join path weights" `Quick test_join_paths_weights;
    Alcotest.test_case "shave (paper)" `Quick test_shave_paper;
    Alcotest.test_case "shave/select inverse" `Quick test_shave_select_inverse;
    Alcotest.test_case "shave custom sequence" `Quick test_shave_custom_sequence;
    Alcotest.test_case "shave stop conditions" `Quick test_shave_emissions_stop_conditions;
    Alcotest.test_case "edges to nodes (paper)" `Quick test_edges_to_nodes;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "support in first-emission order" `Quick test_first_emission_order;
  ]
  @ wdata_model_suite
  @ stability_suite
  @ (test_of_list_matches_oracle :: differential_suite)
