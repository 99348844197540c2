module Prng = Wpinq_prng.Prng
module Wdata = Wpinq_weighted.Wdata
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Dataflow = Wpinq_dataflow.Dataflow
module Isotonic = Wpinq_postprocess.Isotonic
module Mcmc = Wpinq_infer.Mcmc
module Fit = Wpinq_infer.Fit
module Workflow = Wpinq_infer.Workflow
module Datasets = Wpinq_data.Datasets
module Qb = Wpinq_queries.Queries.Make (Batch)

type config = {
  scale : float;
  steps : int;
  epsilon : float;
  pow : float;
  seed : int;
  repeats : int;
}

let default = { scale = 1.0; steps = 30_000; epsilon = 0.1; pow = 10_000.0; seed = 42; repeats = 3 }

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title =
  Printf.printf "\n-- %s --\n" title

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 cfg =
  section "Table 1: graph statistics (paper values vs. synthetic stand-ins)";
  Printf.printf "%-22s %8s %9s %6s %9s %7s\n" "Graph" "Nodes" "Edges" "dmax" "Triangles" "r";
  let row name nodes edges dmax tri r =
    Printf.printf "%-22s %8d %9d %6d %9d %+7.2f\n" name nodes edges dmax tri r
  in
  List.iter
    (fun (spec : Datasets.spec) ->
      let p = spec.Datasets.paper in
      row ("paper: " ^ spec.Datasets.name) p.Datasets.nodes p.Datasets.edges p.Datasets.dmax
        p.Datasets.triangles p.Datasets.assortativity;
      let g = Datasets.load ~scale:cfg.scale spec in
      row ("ours:  " ^ spec.Datasets.name) (Graph.n g) (2 * Graph.m g) (Graph.dmax g)
        (Graph.triangle_count g) (Graph.assortativity g);
      let rand = Datasets.random_counterpart ~seed:cfg.seed g in
      Printf.printf "%-22s %8s %9s %6s %9d %+7.2f\n"
        ("paper: Random(" ^ spec.Datasets.name ^ ")")
        "-" "-" "-" spec.Datasets.paper_random_triangles
        spec.Datasets.paper_random_assortativity;
      row
        ("ours:  Random(" ^ spec.Datasets.name ^ ")")
        (Graph.n rand) (2 * Graph.m rand) (Graph.dmax rand) (Graph.triangle_count rand)
        (Graph.assortativity rand);
      print_newline ())
    Datasets.table1

(* ------------------------------------------------------------------ *)
(* Figure 3: TbD with and without bucketing on CA-GrQc                 *)
(* ------------------------------------------------------------------ *)

let tbd_signal_analysis ~epsilon ~bucket g =
  (* The Section 5.2 discussion: how much TbD weight exists at all, and how
     much of it survives bucketing into the lowest bucket. *)
  let budget = Budget.create ~name:"signal" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges g) in
  let raw = Batch.unsafe_value (Qb.tbd sym) in
  let bucketed = Batch.unsafe_value (Qb.tbd ~bucket sym) in
  let total = Wdata.total bucketed in
  let heaviest = Wdata.fold (fun _ w acc -> Float.max acc w) bucketed 0.0 in
  Printf.printf
    "signal analysis: total TbD weight %.1f across %d records; bucketing concentrates\n\
    \  it into %d records (%.0f%% in the heaviest) vs Laplace noise amplitude 1/eps = %.0f\n"
    (Wdata.total raw) (Wdata.support_size raw) (Wdata.support_size bucketed)
    (100.0 *. heaviest /. Float.max total 1e-9)
    (1.0 /. epsilon)

let figure3 cfg =
  section "Figure 3: TbD-driven synthesis on CA-GrQc, with and without bucketing";
  let scale = cfg.scale *. 0.5 in
  let secret = Datasets.load ~scale Datasets.grqc in
  let random = Datasets.random_counterpart ~seed:cfg.seed secret in
  Printf.printf "CA-GrQc stand-in at half scale: n=%d m=%d tri=%d r=%.2f; random: tri=%d\n"
    (Graph.n secret) (Graph.m secret) (Graph.triangle_count secret)
    (Graph.assortativity secret) (Graph.triangle_count random);
  (* The paper buckets by k=20 at dmax 81; we bucket by k=5 at our scaled
     dmax so the bucketing stays non-trivial. *)
  let bucket = max 2 (Graph.dmax secret / 4) in
  tbd_signal_analysis ~epsilon:cfg.epsilon ~bucket secret;
  Printf.printf
    "(paper: eps=0.1, pow=10^4, 5x10^6 steps, bucket 20 at dmax 81; here bucket %d\n\
    \ at dmax %d; privacy cost 9eps + 3eps seed)\n"
    bucket (Graph.dmax secret);
  let run name g bucket =
    let r =
      Workflow.synthesize ~pow:cfg.pow ~steps:cfg.steps ~trace_every:(max 1 (cfg.steps / 8))
        ~rng:(Prng.create cfg.seed) ~epsilon:cfg.epsilon
        ~query:(Some (Workflow.Tbd bucket)) ~secret:g ()
    in
    (name, r)
  in
  let runs =
    [
      run "GrQc" secret 1;
      run "GrQc+buckets" secret bucket;
      run "Random" random 1;
      run "Random+buckets" random bucket;
    ]
  in
  Printf.printf "\n%10s" "step";
  List.iter (fun (name, _) -> Printf.printf " | %14s tri      r" name) runs;
  print_newline ();
  let traces = List.map (fun (_, (r : Workflow.result)) -> Array.of_list r.trace) runs in
  let points = List.fold_left (fun acc t -> max acc (Array.length t)) 0 traces in
  for i = 0 to points - 1 do
    let step = (List.nth traces 0).(min i (Array.length (List.nth traces 0) - 1)).Workflow.step in
    Printf.printf "%10d" step;
    List.iter
      (fun t ->
        let p = t.(min i (Array.length t - 1)) in
        Printf.printf " | %18d %+.3f" p.Workflow.triangles p.Workflow.assortativity)
      traces;
    print_newline ()
  done;
  Printf.printf
    "\n(paper finding: bucketing is what lets MCMC separate GrQc from Random - the\n\
    \ bucketed real-vs-random gap should exceed the raw one - while neither run\n\
    \ approaches the true count: the per-triple TbD signal is mostly noise.)\n"

(* ------------------------------------------------------------------ *)
(* Table 2 and Figure 4: TbI-driven synthesis                          *)
(* ------------------------------------------------------------------ *)

let table2_paper = [ ("CA-GrQc", 643, 35201, 48260); ("CA-HepPh", 248_629, 2_723_633, 3_358_499);
                     ("CA-HepTh", 222, 16_889, 28_339); ("Caltech", 45_170, 129_475, 119_563) ]

let tbi_specs = [ Datasets.grqc; Datasets.hepph; Datasets.hepth; Datasets.caltech ]

let table2 cfg =
  section "Table 2: triangles before MCMC (seed), after TbI-driven MCMC, and in truth";
  Printf.printf "(paper: 5x10^6 steps; here %d steps at scale %.2f)\n\n" cfg.steps cfg.scale;
  Printf.printf "%-10s | %24s | %24s\n" "" "paper (full data)" "ours (stand-in)";
  Printf.printf "%-10s | %7s %8s %8s | %7s %8s %8s\n" "Graph" "Seed" "MCMC" "Truth" "Seed" "MCMC"
    "Truth";
  List.iter2
    (fun (spec : Datasets.spec) (pname, pseed, pmcmc, ptruth) ->
      assert (pname = spec.Datasets.name);
      let secret = Datasets.load ~scale:cfg.scale spec in
      let r =
        Workflow.synthesize ~pow:cfg.pow ~steps:cfg.steps ~rng:(Prng.create cfg.seed)
          ~epsilon:cfg.epsilon ~query:(Some Workflow.Tbi) ~secret ()
      in
      Printf.printf "%-10s | %7d %8d %8d | %7d %8d %8d\n" spec.Datasets.name pseed pmcmc
        ptruth
        (Graph.triangle_count r.Workflow.seed)
        (Graph.triangle_count r.Workflow.synthetic)
        (Graph.triangle_count secret))
    tbi_specs table2_paper

let figure4 cfg =
  section "Figure 4: TbI triangle trajectories, real vs. random";
  Printf.printf "(paper: 5x10^5 steps, eps=0.1, cost 4eps + 3eps seed)\n";
  List.iter
    (fun (spec : Datasets.spec) ->
      let secret = Datasets.load ~scale:cfg.scale spec in
      let random = Datasets.random_counterpart ~seed:cfg.seed secret in
      let run g =
        Workflow.synthesize ~pow:cfg.pow ~steps:cfg.steps ~trace_every:(max 1 (cfg.steps / 10))
          ~rng:(Prng.create cfg.seed) ~epsilon:cfg.epsilon ~query:(Some Workflow.Tbi)
          ~secret:g ()
      in
      let real = run secret and rand = run random in
      subsection
        (Printf.sprintf "%s (truth: real=%d, random=%d)" spec.Datasets.name
           (Graph.triangle_count secret) (Graph.triangle_count random));
      Printf.printf "%10s %12s %12s\n" "step" "real tri" "random tri";
      List.iter2
        (fun (p : Workflow.trace_point) (q : Workflow.trace_point) ->
          Printf.printf "%10d %12d %12d\n" p.Workflow.step p.Workflow.triangles
            q.Workflow.triangles)
        real.Workflow.trace rand.Workflow.trace)
    tbi_specs

(* ------------------------------------------------------------------ *)
(* Figure 5: sensitivity to epsilon                                    *)
(* ------------------------------------------------------------------ *)

let figure5 cfg =
  section "Figure 5: TbI fits of CA-GrQc across epsilon (mean +/- std of final triangles)";
  Printf.printf "(paper: eps in {0.01, 0.1, 1, 10}, total cost 7eps, 5 repeats; here %d repeats)\n\n"
    cfg.repeats;
  let secret = Datasets.load ~scale:cfg.scale Datasets.grqc in
  let random = Datasets.random_counterpart ~seed:cfg.seed secret in
  Printf.printf "truth: real=%d random=%d seed-free baseline\n" (Graph.triangle_count secret)
    (Graph.triangle_count random);
  Printf.printf "%8s | %12s %12s | %12s\n" "eps" "mean tri" "std" "random mean";
  List.iter
    (fun eps ->
      let finals g =
        List.init cfg.repeats (fun i ->
            let r =
              Workflow.synthesize ~pow:cfg.pow ~steps:cfg.steps
                ~rng:(Prng.create (cfg.seed + (1000 * i)))
                ~epsilon:eps ~query:(Some Workflow.Tbi) ~secret:g ()
            in
            float_of_int (Graph.triangle_count r.Workflow.synthetic))
      in
      let stats l =
        let n = float_of_int (List.length l) in
        let mean = List.fold_left ( +. ) 0.0 l /. n in
        let var = List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 l /. n in
        (mean, sqrt var)
      in
      let mean, std = stats (finals secret) in
      let rmean, _ = stats (finals random) in
      Printf.printf "%8.2f | %12.0f %12.0f | %12.0f\n%!" eps mean std rmean)
    [ 0.01; 0.1; 1.0; 10.0 ]

(* ------------------------------------------------------------------ *)
(* Table 3 and Figure 6: scalability                                   *)
(* ------------------------------------------------------------------ *)

let table3 cfg =
  section "Table 3: Barabasi-Albert graphs with growing attachment skew";
  Printf.printf "(paper: 100k nodes, 2M edges; ours: scaled stand-ins with the same sweep)\n\n";
  Printf.printf "%-12s %5s | %6s %9s %12s | %6s %9s %12s\n" "Graph" "beta" "dmax" "tri"
    "sum d^2" "dmax" "tri" "sum d^2";
  Printf.printf "%-12s %5s | %28s | %28s\n" "" "" "paper" "ours";
  List.iter
    (fun (spec : Datasets.ba_spec) ->
      let g = Datasets.ba_graph ~scale:cfg.scale spec in
      Printf.printf "%-12s %5.2f | %6d %9d %12d | %6d %9d %12d\n" spec.Datasets.label
        spec.Datasets.beta spec.Datasets.paper_dmax spec.Datasets.paper_triangles
        spec.Datasets.paper_sum_deg_sq (Graph.dmax g) (Graph.triangle_count g)
        (Graph.sum_deg_sq g))
    Datasets.table3

(* Measures [queries] on [secret] under a throwaway budget. *)
let measure ~rng ~epsilon secret queries =
  let budget = Budget.create ~name:"fit" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  Workflow.measure_queries ~rng ~epsilon ~sym queries

(* A fit of [seed_graph] to the measurements, over their shared plans. *)
let fit_of ~rng ~seed_graph qms =
  let source, measured = Workflow.shared_measured qms in
  Fit.create_shared ~rng ~seed_graph ~source ~measured ()

let figure6 cfg =
  section "Figure 6 (left): TbI engine cost vs. sum d^2 on the Barabasi-Albert sweep";
  Printf.printf
    "(paper: 25GB->45GB memory and 80->25 steps/s as sum d^2 grows 72M->119M;\n\
    \ ours reports engine state records as the memory proxy)\n\n";
  Printf.printf "%-12s %12s %14s %12s %12s\n" "Graph" "sum d^2" "state records" "steps/s"
    "accept %";
  let probe_steps = max 500 (cfg.steps / 10) in
  List.iter
    (fun (spec : Datasets.ba_spec) ->
      let secret = Datasets.ba_graph ~scale:cfg.scale spec in
      let rng = Prng.create cfg.seed in
      let qms = measure ~rng ~epsilon:cfg.epsilon secret [ Workflow.Tbi ] in
      let seed = Datasets.random_counterpart ~seed:cfg.seed secret in
      let fit = fit_of ~rng ~seed_graph:seed qms in
      let state = Dataflow.Engine.state_records (Fit.engine fit) in
      let t0 = now () in
      let stats = Fit.run fit ~steps:probe_steps ~pow:cfg.pow () in
      let dt = now () -. t0 in
      Printf.printf "%-12s %12d %14d %12.0f %11.1f%%\n%!" spec.Datasets.label
        (Graph.sum_deg_sq secret) state
        (float_of_int probe_steps /. dt)
        (100.0 *. float_of_int stats.Mcmc.accepted /. float_of_int probe_steps))
    Datasets.table3;
  section "Figure 6 (right): TbI behaviour on Epinions vs. Random(Epinions)";
  let secret = Datasets.load ~scale:cfg.scale Datasets.epinions in
  let random = Datasets.random_counterpart ~seed:cfg.seed secret in
  Printf.printf "truth: real=%d random=%d\n" (Graph.triangle_count secret)
    (Graph.triangle_count random);
  let run g =
    Workflow.synthesize ~pow:cfg.pow ~steps:cfg.steps ~trace_every:(max 1 (cfg.steps / 10))
      ~rng:(Prng.create cfg.seed) ~epsilon:cfg.epsilon ~query:(Some Workflow.Tbi) ~secret:g ()
  in
  let real = run secret and rand = run random in
  Printf.printf "%10s %12s %12s\n" "step" "real tri" "random tri";
  List.iter2
    (fun (p : Workflow.trace_point) (q : Workflow.trace_point) ->
      Printf.printf "%10d %12d %12d\n" p.Workflow.step p.Workflow.triangles
        q.Workflow.triangles)
    real.Workflow.trace rand.Workflow.trace

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_incremental cfg =
  section "Ablation: incremental maintenance vs. from-scratch re-execution (TbI)";
  let secret = Datasets.load ~scale:(cfg.scale *. 0.5) Datasets.grqc in
  let rng = Prng.create cfg.seed in
  let qms = measure ~rng ~epsilon:cfg.epsilon secret [ Workflow.Tbi ] in
  let fit = fit_of ~rng ~seed_graph:secret qms in
  let steps = 2_000 in
  let t0 = now () in
  let _ = Fit.run fit ~steps ~pow:cfg.pow () in
  let incr_per_step = (now () -. t0) /. float_of_int steps in
  (* From-scratch strategy: re-evaluate the whole TbI pipeline per step. *)
  let mutable_g = Graph.Mutable.of_graph secret in
  let scratch_evals = 20 in
  let t1 = now () in
  for _ = 1 to scratch_evals do
    (match Graph.Mutable.propose_swap mutable_g rng with
    | Some s -> Graph.Mutable.apply mutable_g s
    | None -> ());
    let budget = Budget.create ~name:"scratch" 1e9 in
    let sym =
      Batch.source_records ~budget (Graph.directed_edges (Graph.Mutable.to_graph mutable_g))
    in
    ignore (Wdata.total (Batch.unsafe_value (Qb.tbi sym)))
  done;
  let scratch_per_step = (now () -. t1) /. float_of_int scratch_evals in
  Printf.printf
    "graph n=%d m=%d: incremental %.3f ms/step, from-scratch %.1f ms/step -> %.0fx speedup\n"
    (Graph.n secret) (Graph.m secret) (1000.0 *. incr_per_step) (1000.0 *. scratch_per_step)
    (scratch_per_step /. incr_per_step)

let ablation_join cfg =
  section "Ablation: Join's norm-preserving fast path (Appendix B)";
  let secret = Datasets.load ~scale:(cfg.scale *. 0.5) Datasets.grqc in
  let rng = Prng.create cfg.seed in
  let qms = measure ~rng ~epsilon:cfg.epsilon secret [ Workflow.Tbi ] in
  let fit = fit_of ~rng ~seed_graph:secret qms in
  let engine = Fit.engine fit in
  let counters () = Dataflow.Engine.(join_fast_updates engine, join_full_rescales engine) in
  (* A build (the first, a compaction) is a bulk build and retires no
     per-key Join update, and an aborted proposal keeps the work it did:
     the differences count the Join work of every evaluated swap. *)
  let fast0, full0 = counters () in
  let _ = Fit.run fit ~steps:5_000 ~pow:cfg.pow () in
  let fast1, full1 = counters () in
  let fast = fast1 - fast0 and full = full1 - full0 in
  Printf.printf
    "during 5000 swap steps: %d fast per-key updates, %d full rescales (%.1f%% fast)\n\
     (edge swaps preserve key norms, so nearly all Join work takes the linear path)\n"
    fast full
    (100.0 *. float_of_int fast /. float_of_int (max 1 (fast + full)))

let ablation_seed cfg =
  section "Ablation: degree-matched seed vs. Erdos-Renyi seed (Section 4.2, initial state)";
  let secret = Datasets.load ~scale:(cfg.scale *. 0.5) Datasets.grqc in
  let rng = Prng.create cfg.seed in
  let qms = measure ~rng ~epsilon:cfg.epsilon secret [ Workflow.Tbi ] in
  let seed_matched = Datasets.random_counterpart ~seed:cfg.seed secret in
  let seed_er = Gen.erdos_renyi ~n:(Graph.n secret) ~m:(Graph.m secret) (Prng.create cfg.seed) in
  let run name seed =
    let fit = fit_of ~rng:(Prng.create (cfg.seed + 1)) ~seed_graph:seed qms in
    let e0 = Fit.energy fit in
    let _ = Fit.run fit ~steps:(max 2_000 (cfg.steps / 4)) ~pow:cfg.pow () in
    Printf.printf "%-22s energy %8.2f -> %8.2f, triangles %6d -> %6d (truth %d)\n" name e0
      (Fit.energy fit)
      (Graph.triangle_count seed)
      (Graph.triangle_count (Fit.graph fit))
      (Graph.triangle_count secret)
  in
  run "degree-matched seed" seed_matched;
  run "Erdos-Renyi seed" seed_er;
  Printf.printf
    "(beyond fit quality, the degree-matched start is what keeps the walk - which\n\
    \ preserves degrees exactly - anchored to the measured degree sequence.)\n"

let ablation_postprocess cfg =
  section "Ablation: degree-sequence post-processing (raw vs. PAVA vs. grid path)";
  let secret = Datasets.load ~scale:(cfg.scale *. 0.5) Datasets.grqc in
  let truth = Graph.degree_sequence_desc secret in
  Printf.printf "%8s | %10s %10s %10s   (L1 error of the degree sequence)\n" "eps" "raw"
    "PAVA" "grid path";
  List.iter
    (fun eps ->
      let budget = Budget.create ~name:"pp" 1e9 in
      let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
      let ms = Workflow.measure_seed ~rng:(Prng.create cfg.seed) ~epsilon:eps ~sym in
      let err fitted =
        let n = max (Array.length truth) (Array.length fitted) in
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          let t = if i < Array.length truth then float_of_int truth.(i) else 0.0 in
          let f = if i < Array.length fitted then float_of_int fitted.(i) else 0.0 in
          acc := !acc +. Float.abs (t -. f)
        done;
        !acc
      in
      let raw =
        Array.init (Array.length truth) (fun x ->
            int_of_float (Float.round (Wpinq_core.Measurement.value ms.Workflow.deg_seq x)))
      in
      let pava = Workflow.fit_degrees_pava_only ms in
      let grid = Workflow.fit_degrees ms in
      Printf.printf "%8.2f | %10.0f %10.0f %10.0f\n%!" eps (err raw) (err pava) (err grid))
    [ 0.05; 0.1; 0.5; 1.0 ]

let ablation_combined cfg =
  section "Ablation: combining measurements (Section 1.2, benefit 2)";
  let secret = Datasets.load ~scale:(cfg.scale *. 0.5) Datasets.grqc in
  let rng = Prng.create cfg.seed in
  let m_tbi, m_jdd =
    match measure ~rng ~epsilon:cfg.epsilon secret [ Workflow.Tbi; Workflow.Jdd ] with
    | [ t; j ] -> (t, j)
    | _ -> assert false
  in
  let seed = Datasets.random_counterpart ~seed:cfg.seed secret in
  let steps = max 2_000 (cfg.steps / 2) in
  Printf.printf "truth: triangles %d, assortativity %+.3f; seed: %d, %+.3f; %d steps

"
    (Graph.triangle_count secret) (Graph.assortativity secret) (Graph.triangle_count seed)
    (Graph.assortativity seed) steps;
  Printf.printf "%-14s %10s %14s
" "targets" "triangles" "assortativity";
  let run name qms =
    let fit = fit_of ~rng:(Prng.create (cfg.seed + 1)) ~seed_graph:seed qms in
    let _ = Fit.run fit ~steps ~pow:cfg.pow () in
    let g = Fit.graph fit in
    Printf.printf "%-14s %10d %+14.3f
%!" name (Graph.triangle_count g)
      (Graph.assortativity g)
  in
  run "TbI only" [ m_tbi ];
  run "JDD only" [ m_jdd ];
  run "TbI + JDD" [ m_tbi; m_jdd ];
  Printf.printf
    "(the combined posterior should track both statistics at once, where each
    \ single-measurement fit only moves its own.)
"

let baselines cfg =
  section "Baselines: four ways to count triangles privately (intro / Figure 1)";
  let module Pinq = Wpinq_baselines.Pinq in
  let module Smooth = Wpinq_baselines.Smooth in
  let v = 120 in
  let worst =
    (* Two hubs adjacent to everyone (but not to each other): adding edge
       (0,1) would create |V|-2 triangles at once. *)
    Graph.of_edges
      (List.concat_map (fun i -> [ (0, i); (1, i) ]) (List.init (v - 2) (fun i -> i + 2)))
  in
  let best =
    Graph.of_edges
      (List.concat_map
         (fun i -> [ (3 * i, (3 * i) + 1); ((3 * i) + 1, (3 * i) + 2); (3 * i, (3 * i) + 2) ])
         (List.init (v / 3) (fun i -> i)))
  in
  let union =
    Graph.of_edges
      (Graph.edges worst @ List.map (fun (a, b) -> (a + v, b + v)) (Graph.edges best))
  in
  let eps = Float.max cfg.epsilon 0.5 and delta = 1e-6 in
  Printf.printf "eps = %.2f (delta = %g for the smooth-sensitivity mechanism)

" eps delta;
  Printf.printf "%-12s %6s | %22s | %22s | %10s | %18s
" "graph" "true"
    "worst-case Laplace" "smooth sensitivity" "PINQ" "wPINQ TbI";
  Printf.printf "%-12s %6s | %10s %11s | %10s %11s | %10s | %8s %9s
" "" ""
    "released" "noise" "released" "noise" "paths" "signal" "measured";
  let rng = Prng.create cfg.seed in
  List.iter
    (fun (name, g) ->
      let wc, wc_scale = Smooth.worst_case_noisy_triangles ~rng ~epsilon:eps g in
      let sm, sm_scale = Smooth.noisy_triangles ~rng ~epsilon:eps ~delta g in
      (* PINQ: length-two paths via the guarded join - any vertex of degree
         >= 2 is suppressed, so triangle analysis gets no raw material. *)
      let pinq_paths =
        let budget = Budget.create ~name:"pinq" 1e9 in
        let edges = Pinq.source ~budget (Graph.directed_edges g) in
        let paths = Pinq.join ~kl:snd ~kr:fst ~reduce:(fun (a, b) (_, c) -> (a, b, c)) edges edges in
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Pinq.unsafe_contents paths)
      in
      (* wPINQ: the TbI count at constant noise 4/eps. *)
      let budget = Budget.create ~name:"wpinq" 1e9 in
      let sym = Batch.source_records ~budget (Graph.directed_edges g) in
      let m = Batch.noisy_count ~rng ~epsilon:eps (Qb.tbi sym) in
      Printf.printf "%-12s %6d | %10.0f %11.0f | %10.0f %11.1f | %10d | %8.1f %9.1f
" name
        (Graph.triangle_count g) wc wc_scale sm sm_scale pinq_paths (Graph.tbi_signal g)
        (Wpinq_core.Measurement.value m ()))
    [ ("worst-case", worst); ("best-case", best); ("union", union) ];
  Printf.printf
    "
Reading: worst-case noise drowns every graph; smooth sensitivity is accurate
     on the best-case ring but collapses on the union (one bad pair poisons the
     whole instance); PINQ's guarded join suppresses every length-two path through
     a degree>=2 vertex, leaving nothing to count; wPINQ's weighted count keeps the
     well-behaved half of the union at constant noise.
"

let ablations cfg =
  baselines cfg;
  ablation_combined cfg;
  ablation_incremental cfg;
  ablation_join cfg;
  ablation_seed cfg;
  ablation_postprocess cfg

let all cfg =
  table1 cfg;
  figure3 cfg;
  table2 cfg;
  figure4 cfg;
  figure5 cfg;
  table3 cfg;
  figure6 cfg
