(* Motif counting beyond triangles (paper, Section 3.5).

   The path-and-join recipe generalizes to any small subgraph.  This
   example contrasts two single-count motif queries — TbI (triangles,
   4 eps) and our SbI extension (4-cycles, 6 eps) — on a lattice, a graph
   with many squares and no triangles, then fits a synthetic graph to the
   SbI measurement and watches the square count recover.

   Run with:  dune exec examples/motifs.exe *)

module Graph = Wpinq_graph.Graph
module Rewire = Wpinq_graph.Rewire
module Prng = Wpinq_prng.Prng
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Plan = Wpinq_core.Plan
module Measurement = Wpinq_core.Measurement
module Fit = Wpinq_infer.Fit
module Qb = Wpinq_queries.Queries.Make (Batch)
module Qp = Wpinq_queries.Queries.Make (Plan)

let lattice k =
  let idx i j = (i * k) + j in
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if i + 1 < k then edges := (idx i j, idx (i + 1) j) :: !edges;
      if j + 1 < k then edges := (idx i j, idx i (j + 1)) :: !edges
    done
  done;
  Graph.of_edges !edges

let () =
  let secret = lattice 12 in
  let random = Rewire.randomize secret (Prng.create 1) in
  Printf.printf "lattice 12x12: %d triangles, %d squares\n" (Graph.triangle_count secret)
    (Graph.square_count secret);
  Printf.printf "rewired control: %d triangles, %d squares\n\n"
    (Graph.triangle_count random) (Graph.square_count random);

  (* Compare the two motif signals under one measurement each. *)
  let epsilon = 0.5 in
  let budget = Budget.create ~name:"lattice" (10.0 *. epsilon) in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let tbi = Batch.noisy_count ~rng:(Prng.create 2) ~epsilon (Qb.tbi sym) in
  let sbi = Batch.noisy_count ~rng:(Prng.create 3) ~epsilon (Qb.sbi sym) in
  Printf.printf "TbI (triangles, 4eps): measured %+.2f  (no triangles -> pure noise)\n"
    (Measurement.value tbi ());
  Printf.printf "SbI (squares,   6eps): measured %+.2f  (real square signal)\n"
    (Measurement.value sbi ());
  Printf.printf "budget spent: %.2f of %.2f\n\n" (Budget.spent budget) (Budget.total budget);

  (* Fit a rewired seed back toward the lattice using only the SbI count.
     The edge-swap walk preserves degrees; the SbI target restores
     squares. *)
  let source = Plan.source ~name:"sym" () in
  let fit =
    Fit.create_shared ~rng:(Prng.create 4) ~seed_graph:random ~source
      ~measured:[ Fit.Measured (Qp.sbi source, sbi) ]
      ()
  in
  Printf.printf "fitting the rewired control to the SbI measurement:\n";
  Printf.printf "%10s %10s %10s\n" "step" "squares" "energy";
  let steps_per_round = 4_000 in
  Printf.printf "%10d %10d %10.3f\n" 0 (Graph.square_count (Fit.graph fit)) (Fit.energy fit);
  for round = 1 to 8 do
    ignore (Fit.run fit ~steps:steps_per_round ~pow:10_000.0 ());
    Printf.printf "%10d %10d %10.3f\n" (round * steps_per_round)
      (Graph.square_count (Fit.graph fit))
      (Fit.energy fit)
  done;
  Printf.printf "\ntarget: %d squares (the secret lattice).\n" (Graph.square_count secret)
