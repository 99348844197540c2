(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Section 5) through Wpinq_experiments, with per-experiment step budgets
   sized so the whole run finishes in minutes.  `bin/experiments.exe`
   exposes the same code with free knobs for longer, closer-to-paper runs.

   Part 2 runs Bechamel micro-benchmarks of the kernels those experiments
   stress: one per table/figure kernel plus the core engine primitives.

   Part 3 is the machine-readable walk benchmark: a Metropolis–Hastings
   walk on scaled-down ca-GrQc with per-step wall time bucketed by
   accept/reject, written to BENCH_wpinq.json next to the recorded
   pre-speculation baseline.  `--smoke` runs only this part, reduced, for
   CI; `--json PATH` overrides the output path. *)

module E = Wpinq_experiments.Experiments
module Prng = Wpinq_prng.Prng
module Wdata = Wpinq_weighted.Wdata
module Ops = Wpinq_weighted.Ops
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Fit = Wpinq_infer.Fit
module Mcmc = Wpinq_infer.Mcmc
module Workflow = Wpinq_infer.Workflow
module Plan = Wpinq_core.Plan
module Datasets = Wpinq_data.Datasets
module Gridpath = Wpinq_postprocess.Gridpath
module Qb = Wpinq_queries.Queries.Make (Batch)
module Qp = Wpinq_queries.Queries.Make (Plan)

let banner title =
  Printf.printf "\n############################################################\n";
  Printf.printf "## %s\n" title;
  Printf.printf "############################################################\n%!"

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "\n[%s finished in %.1fs]\n%!" name (Unix.gettimeofday () -. t0)

let experiments () =
  banner "Part 1: regenerating every table and figure (scaled-down defaults)";
  let base = E.default in
  timed "table1" (fun () -> E.table1 { base with E.steps = 0 });
  timed "figure3" (fun () -> E.figure3 { base with E.steps = 3_000 });
  timed "table2" (fun () -> E.table2 { base with E.steps = 25_000 });
  timed "figure4" (fun () -> E.figure4 { base with E.steps = 12_000 });
  timed "figure5" (fun () -> E.figure5 { base with E.steps = 8_000; E.repeats = 2 });
  timed "table3" (fun () -> E.table3 base);
  timed "figure6" (fun () -> E.figure6 { base with E.steps = 6_000 });
  timed "ablations" (fun () -> E.ablations { base with E.steps = 8_000 })

(* ---------------- Bechamel micro-benchmarks ---------------- *)

open Bechamel
open Toolkit

let grqc_small = lazy (Datasets.load ~scale:0.4 Datasets.grqc)

let fit_of ~query secret =
  let rng = Prng.create 7 in
  let budget = Budget.create ~name:"bench" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let source, measured =
    Workflow.shared_measured (Workflow.measure_queries ~rng ~epsilon:0.1 ~sym [ query ])
  in
  Fit.create_shared ~rng ~seed_graph:secret ~source ~measured ()

let make_fit ~tbd scale =
  fit_of ~query:(if tbd then Workflow.Tbd 4 else Workflow.Tbi) (Datasets.load ~scale Datasets.grqc)

let bench_tests () =
  let rng = Prng.create 13 in
  let big_data =
    lazy (Wdata.of_list (List.init 20_000 (fun i -> (i mod 4_096, Prng.float rng 2.0))))
  in
  (* Fixtures are forced ahead of measurement so setup cost (engine build +
     initial load) never lands inside a measured run. *)
  let tbi_fit = lazy (make_fit ~tbd:false 0.4) in
  let tbd_fit = lazy (make_fit ~tbd:true 0.25) in
  ignore (Lazy.force tbi_fit);
  ignore (Lazy.force tbd_fit);
  ignore (Lazy.force grqc_small);
  let noisy_arrays =
    lazy
      (let r = Prng.create 5 in
       let v =
         Array.init 120 (fun i ->
             Float.max 0.0 (float_of_int (30 - (i / 4)) +. Prng.laplace r ~scale:3.0))
       in
       let h =
         Array.init 40 (fun i ->
             Float.max 0.0 (float_of_int (120 - (4 * i)) +. Prng.laplace r ~scale:3.0))
       in
       (v, h))
  in
  ignore (Lazy.force big_data);
  ignore (Lazy.force noisy_arrays);
  [
    (* Table 1 kernel: exact statistics of a stand-in graph. *)
    Test.make ~name:"table1/triangle_count+assortativity"
      (Staged.stage (fun () ->
           let g = Lazy.force grqc_small in
           ignore (Graph.triangle_count g + int_of_float (Graph.assortativity g))));
    (* Figure 3 kernel: one TbD-driven MCMC step. *)
    Test.make ~name:"figure3/tbd_mcmc_step"
      (Staged.stage (fun () -> ignore (Fit.run (Lazy.force tbd_fit) ~steps:1 ~pow:10_000.0 ())));
    (* Table 2 / Figures 4-6 kernel: one TbI-driven MCMC step. *)
    Test.make ~name:"table2+fig4-6/tbi_mcmc_step"
      (Staged.stage (fun () -> ignore (Fit.run (Lazy.force tbi_fit) ~steps:1 ~pow:10_000.0 ())));
    (* Figure 5 kernel: the Laplace mechanism itself. *)
    Test.make ~name:"figure5/laplace_sample"
      (Staged.stage (fun () -> ignore (Prng.laplace rng ~scale:10.0)));
    (* Table 3 kernel: skewed preferential-attachment generation. *)
    Test.make ~name:"table3/barabasi_albert_n2000"
      (Staged.stage (fun () ->
           ignore (Gen.barabasi_albert ~n:2_000 ~m:5 ~alpha:1.2 (Prng.create 3))));
    (* Phase-1 kernel: grid-path degree-sequence fit. *)
    Test.make ~name:"phase1/gridpath_fit"
      (Staged.stage (fun () ->
           let v, h = Lazy.force noisy_arrays in
           ignore (Gridpath.fit ~v ~h)));
    (* Engine primitives. *)
    Test.make ~name:"engine/batch_join_20k_records"
      (Staged.stage (fun () ->
           let d = Lazy.force big_data in
           ignore
             (Ops.join ~kl:(fun x -> x mod 64) ~kr:(fun x -> x mod 64)
                ~reduce:(fun a b -> (a, b))
                d d)));
    Test.make ~name:"engine/batch_group_by_20k_records"
      (Staged.stage (fun () ->
           ignore
             (Ops.group_by ~key:(fun x -> x mod 512) ~reduce:List.length (Lazy.force big_data))));
  ]

let run_benchmarks () =
  banner "Part 2: Bechamel micro-benchmarks";
  Printf.printf "(setting up fixtures...)\n%!";
  let cfg = Benchmark.cfg ~limit:2_000 ~quota:(Time.second 0.5) ~kde:(Some 1_000) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  Printf.printf "%-42s %15s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] ->
              let pretty =
                if t > 1e9 then Printf.sprintf "%8.2f  s" (t /. 1e9)
                else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
                else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
                else Printf.sprintf "%8.0f ns" t
              in
              Printf.printf "%-42s %15s\n%!" name pretty
          | _ -> Printf.printf "%-42s %15s\n%!" name "n/a")
        results)
    (bench_tests ())

(* ---------------- Part 3: the machine-readable walk benchmark ------------

   One TbI-driven walk ([Fit.run] at jobs = 1, the walk every caller
   runs) on scaled-down ca-GrQc, per-step wall time bucketed by
   accept/reject.  The [baseline] block records the same run measured on
   the pre-speculation engine (rejection = full inverse re-propagation,
   per-batch list/hashtable churn); [current] is measured live.  The
   headline number is rejected_over_accepted: a rejected move used to cost
   ~2x an accepted one, the undo log brings it within 1.25x. *)

module Dataflow = Wpinq_dataflow.Dataflow

(* ---------------- Memory reporting (every machine-readable part) --------

   Each recorded part carries a [memory] block: precise heap words from
   [Gc.stat] (a full-heap walk — called once per part, after measurement)
   and the kernel's view of the process via /proc/self/status.  RSS is
   what a paper-scale budget is stated against; live words say how much
   of it is reachable state rather than GC slack. *)

let proc_status_kb () =
  let rss = ref 0 and hwm = ref 0 in
  (try
     let ic = open_in "/proc/self/status" in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         try
           while true do
             let line = input_line ic in
             let grab prefix cell =
               let pl = String.length prefix in
               if String.length line > pl && String.sub line 0 pl = prefix then
                 try Scanf.sscanf (String.sub line pl (String.length line - pl)) " %d kB"
                       (fun v -> cell := v)
                 with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
             in
             grab "VmRSS:" rss;
             grab "VmHWM:" hwm
           done
         with End_of_file -> ())
   with Sys_error _ -> ());
  (!rss, !hwm)

let memory_json indent =
  let st = Gc.stat () in
  let rss_kb, peak_rss_kb = proc_status_kb () in
  let pad = String.make indent ' ' in
  String.concat "\n"
    [
      Printf.sprintf "%s\"memory\": {" pad;
      Printf.sprintf "%s  \"live_words\": %d," pad st.Gc.live_words;
      Printf.sprintf "%s  \"heap_words\": %d," pad st.Gc.heap_words;
      Printf.sprintf "%s  \"top_heap_words\": %d," pad st.Gc.top_heap_words;
      Printf.sprintf "%s  \"rss_kb\": %d," pad rss_kb;
      Printf.sprintf "%s  \"peak_rss_kb\": %d" pad peak_rss_kb;
      Printf.sprintf "%s}" pad;
    ]

(* Recorded on this repository's engine before the speculative
   propose/commit/abort rewrite (same config as the full run below:
   ca-GrQc at scale 0.4, seed 7, epsilon 0.1, pow 10^4, 2k warmup steps,
   20k measured). *)
let baseline_json =
  {|  "baseline": {
    "engine": "pre-speculation (inverse re-propagation on reject)",
    "accepted_us_per_step": 232.249,
    "rejected_us_per_step": 445.853,
    "rejected_over_accepted": 1.920,
    "minor_words_per_step": 25274.2,
    "join_fast_updates": 340936,
    "join_full_rescales": 1040
  }|}

(* ---------------- Part 4: shared-plan multi-query benchmark -------------

   All five Section-3 analyses — degree CCDF + JDD + TbD + TbI + SbI —
   through two phases, three arms each.

   Phase A is admission: three tenants each submit the five analyses
   against the protected graph.  The unshared arm lowers every submission
   through its own fresh source and context (15 full batch evaluations);
   the shared arm gives each tenant one context (intra-tenant prefixes —
   the 2-path join under TbD/TbI/SbI — evaluate once per tenant); the
   optimized arm canonicalizes every submission onto one module-wide
   source through {!Plan.optimize}, whose plan cache plus the lowering
   memo turn every repeat submission into a noise redraw over an
   already-forced dataset.  The gated wall-clock ratio is this phase's:
   it is where canonical identity does its work, and the ~3x margin is
   far outside scheduler noise.  Released values must agree bit for bit
   between the unoptimized and optimized lowerings (also gated; grid
   accumulation makes every rewrite exact).

   Phase B is synthesis: the tenant-1 measurements fitted three ways —
   per-target pipelines, one shared context, and the optimized plans —
   each on a bare engine under the same driver ([bare_walk]).  Shared vs
   unshared walks take bit-identical steps (property-tested),
   so records-propagated-per-step is a deterministic like-for-like cost
   comparison and the optimized arm must strictly beat unshared on it
   (gated).  The optimized walk may differ from the plain one in ulps
   (rewiring a join changes incremental accumulation order); per-step
   wall times are reported but not gated — per-step cost is dominated by
   per-analysis propagation that no privacy-sound rewrite removes, so
   the honest walk-side signal is the records counter, not the clock. *)

(* A bare engine walked by [Mcmc.run_lookahead] at width 1, over the
   targets [build] lowers from the synthetic input: the fit's jobs = 1
   evaluation (speculate, hold the first winner open, commit it in place)
   without the fit's compaction, so arms that lower their targets
   differently run under one driver and their engine counters compare
   like for like. *)
let bare_walk ~seed_graph build =
  let engine = Dataflow.Engine.create () in
  let handle, sym = Flow.input engine in
  let targets = build sym in
  let graph = Graph.Mutable.of_graph seed_graph in
  Flow.feed handle
    (List.concat_map
       (fun (u, v) -> [ ((u, v), 1.0); ((v, u), 1.0) ])
       (Array.to_list (Graph.Mutable.edge_array graph)));
  let energy = ref (Flow.Target.energy targets) in
  let eval ~pow ~energy:base streams =
    let verdicts = Array.make (Array.length streams) Mcmc.Invalid in
    let rec go i =
      if i < Array.length streams then
        match Graph.Mutable.propose_swap graph streams.(i) with
        | None -> go (i + 1)
        | Some swap ->
            Dataflow.Engine.begin_speculation engine;
            Graph.Mutable.apply graph swap;
            Flow.feed handle (Graph.Mutable.delta swap);
            let proposed = Flow.Target.energy targets in
            Graph.Mutable.apply graph (Graph.Mutable.invert swap);
            let delta = proposed -. base in
            if not (Float.is_finite proposed) then begin
              Dataflow.Engine.abort engine;
              verdicts.(i) <- Mcmc.Nonfinite
            end
            else if delta <= 0.0 || Prng.uniform streams.(i) < exp (-.pow *. delta) then
              verdicts.(i) <- Mcmc.Accepted { swap; proposed }
            else begin
              Dataflow.Engine.abort engine;
              verdicts.(i) <- Mcmc.Rejected;
              go (i + 1)
            end
    in
    go 0;
    verdicts
  in
  let lookahead =
    {
      Mcmc.la_jobs = 1;
      la_energy = (fun () -> !energy);
      la_eval = eval;
      la_commit =
        (fun swap ~proposed ->
          Graph.Mutable.apply graph swap;
          Dataflow.Engine.commit engine;
          energy := proposed);
      la_refresh =
        (fun () ->
          List.iter Flow.Target.recompute targets;
          energy := Flow.Target.energy targets;
          !energy);
      la_resync = (fun () -> !energy);
    }
  in
  (engine, lookahead)

let multi_bench ~smoke () =
  let module M = Wpinq_core.Measurement in
  banner "Part 4: shared-plan multi-query benchmark (five analyses + optimizer)";
  let scale, warmup, steps = if smoke then (0.1, 100, 1_000) else (0.12, 200, 1_500) in
  let tenants = 3 in
  Printf.printf
    "(ca-GrQc at scale %.2f: ccdf + jdd + tbd + tbi + sbi; %d tenants; %d warmup + %d \
     measured steps)\n%!"
    scale tenants warmup steps;
  let secret = Datasets.load ~scale Datasets.grqc in
  let records = Graph.directed_edges secret in
  (* One module-wide source for the shared and optimized arms; the corpus
     plans and their exact-rules canonical forms. *)
  let corpus src =
    (Qp.degree_ccdf src, Qp.jdd src, Qp.tbd src, Qp.tbi src, Qp.sbi src)
  in
  let source = Plan.source ~name:"sym" () in
  let plain = corpus source in
  let pc, pj, pt, pi, ps = plain in
  let opt =
    (Plan.optimize pc, Plan.optimize pj, Plan.optimize pt, Plan.optimize pi,
     Plan.optimize ps)
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Phase A: three tenants submit the five analyses.  Same PRNG seed and
     submission order per arm, so released values are comparable bit for
     bit across arms. *)
  let eval_unshared_tenant () =
    let rng = Prng.create 7 in
    let budget = Budget.create ~name:"bench" 1e9 in
    let count q =
      let s = Plan.source ~name:"sym" () in
      let ctx = Batch.Plans.create () in
      Batch.Plans.bind ctx s (Batch.source_records ~budget records);
      Batch.noisy_count ~rng ~epsilon:0.1 (Batch.Plans.lower ctx (q s))
    in
    ( count Qp.degree_ccdf,
      count Qp.jdd,
      count (fun s -> Qp.tbd s),
      count Qp.tbi,
      count Qp.sbi )
  in
  let eval_shared ~src (qc, qj, qt, qi, qs) =
    let rng = Prng.create 7 in
    let budget = Budget.create ~name:"bench" 1e9 in
    let ctx = Batch.Plans.create () in
    Batch.Plans.bind ctx src (Batch.source_records ~budget records);
    let count p = Batch.noisy_count ~rng ~epsilon:0.1 (Batch.Plans.lower ctx p) in
    (count qc, count qj, count qt, count qi, count qs)
  in
  (* The optimized arm's one canonical context: bound once, shared by every
     tenant, exactly as Workflow holds one module-wide source. *)
  let opt_ctx = Batch.Plans.create () in
  let opt_budget = Budget.create ~name:"bench" 1e9 in
  Batch.Plans.bind opt_ctx source (Batch.source_records ~budget:opt_budget records);
  let eval_optimized_tenant () =
    let rng = Prng.create 7 in
    let qc, qj, qt, qi, qs =
      ( Plan.optimize pc,
        Plan.optimize pj,
        Plan.optimize pt,
        Plan.optimize pi,
        Plan.optimize ps )
    in
    let count p = Batch.noisy_count ~rng ~epsilon:0.1 (Batch.Plans.lower opt_ctx p) in
    (count qc, count qj, count qt, count qi, count qs)
  in
  let _, lower_u =
    timed (fun () ->
        for _ = 1 to tenants do
          ignore (eval_unshared_tenant ())
        done)
  in
  let (mc, mj, mt, mi, ms), lower_s =
    timed (fun () ->
        let tenant1 = eval_shared ~src:source plain in
        for _ = 2 to tenants do
          let s = Plan.source ~name:"sym" () in
          ignore (eval_shared ~src:s (corpus s))
        done;
        tenant1)
  in
  let (mc', mj', mt', mi', ms'), lower_o =
    timed (fun () ->
        let tenant1 = eval_optimized_tenant () in
        for _ = 2 to tenants do
          ignore (eval_optimized_tenant ())
        done;
        tenant1)
  in
  let same m m' =
    let obs m =
      List.sort compare
        (List.map (fun (x, v) -> (x, Int64.bits_of_float v)) (M.observed m))
    in
    obs m = obs m'
  in
  let identical_measurements =
    same mc mc' && same mj mj' && same mt mt' && same mi mi' && same ms ms'
  in
  (* Each arm fits against pristine copies of the *same* measurement set,
     so lazy walk-time noise draws start from the same cursor in all
     three. *)
  let shared_targets (qc, qj, qt, qi, qs) flow =
    let ctx = Flow.Plans.create (Dataflow.engine_of (Flow.node flow)) in
    Flow.Plans.bind ctx source flow;
    [
      Flow.Target.of_plan ctx qc (M.copy mc);
      Flow.Target.of_plan ctx qj (M.copy mj);
      Flow.Target.of_plan ctx qt (M.copy mt);
      Flow.Target.of_plan ctx qi (M.copy mi);
      Flow.Target.of_plan ctx qs (M.copy ms);
    ]
  in
  (* A fresh plan source and lowering context per target: nothing crosses
     target boundaries. *)
  let unshared_targets flow =
    let target q m =
      let src = Plan.source ~name:"sym" () in
      let ctx = Flow.Plans.create (Dataflow.engine_of (Flow.node flow)) in
      Flow.Plans.bind ctx src flow;
      Flow.Target.of_plan ctx (q src) (M.copy m)
    in
    [
      target Qp.degree_ccdf mc;
      target Qp.jdd mj;
      target (fun s -> Qp.tbd s) mt;
      target Qp.tbi mi;
      target Qp.sbi ms;
    ]
  in
  let run build =
    let engine, lookahead = bare_walk ~seed_graph:secret build in
    let rng = Prng.create 11 in
    ignore (Mcmc.run_lookahead ~rng ~lookahead ~steps:warmup ~pow:10_000.0 ());
    let prop0 = Dataflow.Engine.records_propagated engine in
    let work0 = Dataflow.Engine.work engine in
    let t0 = Unix.gettimeofday () in
    let stats = Mcmc.run_lookahead ~rng ~lookahead ~steps ~pow:10_000.0 () in
    let wall = Unix.gettimeofday () -. t0 in
    ( stats.Mcmc.accepted,
      1e6 *. wall /. float steps,
      float steps /. wall,
      float (Dataflow.Engine.records_propagated engine - prop0) /. float steps,
      float (Dataflow.Engine.work engine - work0) /. float steps,
      Dataflow.Engine.nodes_built engine,
      Dataflow.Engine.nodes_shared engine )
  in
  let u_acc, u_us, u_sps, u_prop, u_work, u_built, u_shared = run unshared_targets in
  let s_acc, s_us, s_sps, s_prop, s_work, s_built, s_shared = run (shared_targets plain) in
  let o_acc, o_us, o_sps, o_prop, o_work, o_built, o_shared = run (shared_targets opt) in
  if s_acc <> u_acc then
    Printf.printf "WARNING: walks diverged (%d vs %d accepted) — counters not comparable\n"
      s_acc u_acc;
  if not identical_measurements then
    Printf.printf "WARNING: optimized plans released different measurement bits\n";
  let cache_hits, cache_misses = Plan.plan_cache_stats () in
  let fires = Plan.optimizer_fires () in
  Printf.printf
    "admission (%d tenants x 5 analyses): unshared %.0f ms, shared %.0f ms, optimized \
     %.0f ms (%.3fx)\n"
    tenants (1e3 *. lower_u) (1e3 *. lower_s) (1e3 *. lower_o) (lower_o /. lower_u);
  Printf.printf "unshared:  %d nodes (%d shared), %.1f records/step, %.3f us/step\n"
    u_built u_shared u_prop u_us;
  Printf.printf "shared:    %d nodes (%d shared), %.1f records/step, %.3f us/step\n"
    s_built s_shared s_prop s_us;
  Printf.printf "optimized: %d nodes (%d shared), %.1f records/step, %.3f us/step\n"
    o_built o_shared o_prop o_us;
  Printf.printf "shared vs unshared:    records %.3fx, walk wall %.3fx\n"
    (s_prop /. u_prop) (s_us /. u_us);
  Printf.printf "optimized vs unshared: records %.3fx, walk wall %.3fx\n"
    (o_prop /. u_prop) (o_us /. u_us);
  Printf.printf "optimizer: %s; plan cache %d hit(s) %d miss(es)\n%!"
    (if fires = [] then "no rewrites"
     else
       String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s x%d" r n) fires))
    cache_hits cache_misses;
  String.concat "\n"
    [
      "  \"multi\": {";
      Printf.sprintf "    \"dataset\": \"ca-GrQc\",";
      Printf.sprintf "    \"scale\": %.2f," scale;
      "    \"queries\": [\"degree_ccdf\", \"jdd\", \"tbd\", \"tbi\", \"sbi\"],";
      Printf.sprintf "    \"tenants\": %d," tenants;
      Printf.sprintf "    \"warmup_steps\": %d," warmup;
      Printf.sprintf "    \"measured_steps\": %d," steps;
      Printf.sprintf "    \"identical_walks\": %b," (s_acc = u_acc);
      Printf.sprintf "    \"identical_measurements\": %b," identical_measurements;
      "    \"unshared\": {";
      Printf.sprintf "      \"lower_ms\": %.1f," (1e3 *. lower_u);
      Printf.sprintf "      \"nodes_built\": %d," u_built;
      Printf.sprintf "      \"nodes_shared\": %d," u_shared;
      Printf.sprintf "      \"accepted_steps\": %d," u_acc;
      Printf.sprintf "      \"rejected_steps\": %d," (steps - u_acc);
      Printf.sprintf "      \"records_propagated_per_step\": %.1f," u_prop;
      Printf.sprintf "      \"work_per_step\": %.1f," u_work;
      Printf.sprintf "      \"us_per_step\": %.3f," u_us;
      Printf.sprintf "      \"steps_per_sec\": %.1f" u_sps;
      "    },";
      "    \"shared\": {";
      Printf.sprintf "      \"lower_ms\": %.1f," (1e3 *. lower_s);
      Printf.sprintf "      \"nodes_built\": %d," s_built;
      Printf.sprintf "      \"nodes_shared\": %d," s_shared;
      Printf.sprintf "      \"accepted_steps\": %d," s_acc;
      Printf.sprintf "      \"rejected_steps\": %d," (steps - s_acc);
      Printf.sprintf "      \"records_propagated_per_step\": %.1f," s_prop;
      Printf.sprintf "      \"work_per_step\": %.1f," s_work;
      Printf.sprintf "      \"us_per_step\": %.3f," s_us;
      Printf.sprintf "      \"steps_per_sec\": %.1f" s_sps;
      "    },";
      "    \"optimized\": {";
      Printf.sprintf "      \"lower_ms\": %.1f," (1e3 *. lower_o);
      Printf.sprintf "      \"nodes_built\": %d," o_built;
      Printf.sprintf "      \"nodes_shared\": %d," o_shared;
      Printf.sprintf "      \"accepted_steps\": %d," o_acc;
      Printf.sprintf "      \"rejected_steps\": %d," (steps - o_acc);
      Printf.sprintf "      \"records_propagated_per_step\": %.1f," o_prop;
      Printf.sprintf "      \"work_per_step\": %.1f," o_work;
      Printf.sprintf "      \"us_per_step\": %.3f," o_us;
      Printf.sprintf "      \"steps_per_sec\": %.1f" o_sps;
      "    },";
      "    \"optimizer\": {";
      Printf.sprintf "      \"fires\": {%s},"
        (String.concat ", "
           (List.map (fun (r, n) -> Printf.sprintf "\"%s\": %d" r n) fires));
      Printf.sprintf "      \"plan_cache_hits\": %d," cache_hits;
      Printf.sprintf "      \"plan_cache_misses\": %d" cache_misses;
      "    },";
      Printf.sprintf "    \"records_propagated_ratio\": %.3f," (s_prop /. u_prop);
      Printf.sprintf "    \"wall_ratio\": %.3f," (lower_s /. lower_u);
      Printf.sprintf "    \"walk_wall_ratio\": %.3f," (s_us /. u_us);
      Printf.sprintf "    \"optimized_records_ratio\": %.3f," (o_prop /. u_prop);
      Printf.sprintf "    \"optimized_wall_ratio\": %.3f," (lower_o /. lower_u);
      Printf.sprintf "    \"optimized_walk_wall_ratio\": %.3f," (o_us /. u_us);
      memory_json 4;
      "  }";
    ]

(* ---------------- Part 5: parallel speculative lookahead -----------------

   The same shared-plan multi-query fit driven through [Fit.run ~jobs]: one
   arm per (jobs, width) point, every arm reconstructing an identical fit
   (same secret, same measurement seed, same walk seed).  The arms run
   twice: from the seed graph, where about a fifth of the proposals are
   accepted, and from a converged start — the edge array one [jobs = 1]
   fit reached after a warmup walk, restored over copies of its
   measurements — where a few percent are.  The realized chain is
   bit-identical across the arms of each set by construction — the arms
   cross-check accepted/invalid counts, final energies (bit patterns) and
   final edge arrays, and [identical_walks] records the verdict (the
   process exits nonzero if it ever goes false, which is what the CI
   multicore job asserts).  Speedups are honest wall-clock ratios on this
   host, against the [jobs = 1] arm of the same set.

   On a single-core host (recommended_domain_count = 1) a jobs sweep only
   measures domain time-slicing overhead — every "speedup" is a slowdown
   by construction and says nothing about the scheduler.  The sweep is
   therefore skipped there ([sweep_status = "skipped_single_core"]) and
   only jobs = 1 arms run: the serial reference and a 4-wide batch the
   owner evaluates alone, which still cross-checks width-invariance and
   records the per-phase counters. *)

type parallel_arm = { arm_label : string; arm_jobs : int; arm_width : Mcmc.width }

let parallel_bench ~smoke ~max_jobs () =
  banner "Part 5: parallel speculative lookahead benchmark";
  let scale, steps, warmup = if smoke then (0.12, 2_000, 5_000) else (0.25, 8_000, 30_000) in
  let host_parallelism = Domain.recommended_domain_count () in
  let single_core = host_parallelism < 2 in
  let sweep_status = if single_core then "skipped_single_core" else "run" in
  let arms =
    if single_core then
      [
        { arm_label = "fixed1"; arm_jobs = 1; arm_width = Mcmc.Fixed 1 };
        { arm_label = "wide1"; arm_jobs = 1; arm_width = Mcmc.Fixed 4 };
      ]
    else
      List.filter (fun k -> k <= max_jobs) [ 1; 2; 4 ]
      |> (fun ks -> if List.mem max_jobs ks then ks else ks @ [ max_jobs ])
      |> List.map (fun k ->
             { arm_label = Printf.sprintf "fixed%d" k; arm_jobs = k; arm_width = Mcmc.Fixed k })
  in
  Printf.printf
    "(ca-GrQc at scale %.2f: degree CCDF + JDD + TbD shared fit, %d steps from the seed graph \
     and from a %d-step converged start, host parallelism %d, sweep %s, arms {%s})\n%!"
    scale steps warmup host_parallelism sweep_status
    (String.concat ", " (List.map (fun a -> a.arm_label) arms));
  let secret = Datasets.load ~scale Datasets.grqc in
  let rng = Prng.create 7 in
  let budget = Budget.create ~name:"bench" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges secret) in
  let mc = Batch.noisy_count ~rng ~epsilon:0.1 (Qb.degree_ccdf sym) in
  let mj = Batch.noisy_count ~rng ~epsilon:0.1 (Qb.jdd sym) in
  let mt = Batch.noisy_count ~rng ~epsilon:0.1 (Qb.tbd sym) in
  let source = Plan.source ~name:"sym" () in
  let measured =
    [
      Fit.Measured (Qp.degree_ccdf source, mc);
      Fit.Measured (Qp.jdd source, mj);
      Fit.Measured (Qp.tbd source, mt);
    ]
  in
  let copies =
    List.map (fun (Fit.Measured (p, m)) -> Fit.Measured (p, Wpinq_core.Measurement.copy m))
  in
  let from_seed () =
    Fit.create_shared ~rng:(Prng.create 11) ~seed_graph:secret ~source ~measured:(copies measured)
      ()
  in
  (* The warm walk's lazy draws land in its own measurement copies; each
     converged arm restores over copies of those. *)
  let warm_measured = copies measured in
  let warm =
    Fit.create_shared ~rng:(Prng.create 11) ~seed_graph:secret ~source ~measured:warm_measured ()
  in
  ignore (Fit.run warm ~steps:warmup ~pow:10_000.0 ());
  let converged () =
    Fit.restore_shared ~rng:(Prng.create 13) ~n:(Fit.nodes warm) ~edges:(Fit.edge_array warm)
      ~source ~measured:(copies warm_measured) ()
  in
  let run_arm make prefix arm =
    let fit = make () in
    let batches = ref 0 and dispatched = ref 0 and consumed = ref 0 in
    let counters = Mcmc.counters () in
    let t0 = Unix.gettimeofday () in
    let stats =
      Fit.run fit ~steps ~pow:10_000.0 ~jobs:arm.arm_jobs ~width:arm.arm_width ~counters
        ~on_batch:(fun ~dispatched:d ~consumed:c ->
          incr batches;
          dispatched := !dispatched + d;
          consumed := !consumed + c)
        ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    (prefix ^ arm.arm_label, arm, stats, wall, !batches, !dispatched, !consumed, counters,
     Fit.edge_array fit)
  in
  (* One set of arms from one start; the first arm is the set's jobs = 1
     reference for both the walk and the speedup. *)
  let run_set make prefix =
    let results = List.map (run_arm make prefix) arms in
    let _, _, ref_stats, ref_wall, _, _, _, _, ref_edges = List.hd results in
    let same (_, _, (s : Mcmc.stats), _, _, _, _, _, edges) =
      s.Mcmc.accepted = ref_stats.Mcmc.accepted
      && s.Mcmc.invalid = ref_stats.Mcmc.invalid
      && Int64.bits_of_float s.Mcmc.final_energy
         = Int64.bits_of_float ref_stats.Mcmc.final_energy
      && edges = ref_edges
    in
    (List.map (fun r -> (r, ref_wall)) results, List.for_all same results)
  in
  let seed_results, seed_identical = run_set from_seed "" in
  let converged_results, converged_identical = run_set converged "converged-" in
  let results = seed_results @ converged_results in
  let identical = seed_identical && converged_identical in
  List.iter
    (fun ( (label, arm, (s : Mcmc.stats), wall, batches, dispatched, consumed, (c : Mcmc.counters), _),
           ref_wall ) ->
      Printf.printf
        "%s (jobs=%d): %.1f steps/s (%.3fs), %d accepted (%.3f), %d batches, efficiency %.3f, \
         speedup %.2fx\n"
        label arm.arm_jobs
        (float steps /. wall)
        wall s.Mcmc.accepted
        (float s.Mcmc.accepted /. float steps)
        batches
        (float consumed /. float (max 1 dispatched))
        (ref_wall /. wall);
      Printf.printf
        "  phases: dispatch %.0fus eval %.0fus resolve %.0fus commit %.0fus; realized K \
         %d..%d (mean %.2f)\n%!"
        c.Mcmc.dispatch_us c.Mcmc.eval_us c.Mcmc.resolve_us c.Mcmc.commit_us
        (if c.Mcmc.batches = 0 then 0 else c.Mcmc.k_min)
        c.Mcmc.k_max
        (float c.Mcmc.k_sum /. float (max 1 c.Mcmc.batches)))
    results;
  if identical then Printf.printf "all arms walked bit-identically\n%!"
  else Printf.printf "ERROR: arms diverged — the lookahead walk is not width-invariant\n%!";
  let arm_json
      ( (label, arm, (s : Mcmc.stats), wall, batches, dispatched, consumed, (c : Mcmc.counters), _),
        ref_wall ) =
    let width_desc =
      match arm.arm_width with
      | Mcmc.Fixed k -> Printf.sprintf "fixed:%d" k
      | Mcmc.Schedule _ -> "schedule"
    in
    String.concat "\n"
      [
        "      {";
        Printf.sprintf "        \"label\": %S," label;
        Printf.sprintf "        \"jobs\": %d," arm.arm_jobs;
        Printf.sprintf "        \"width\": %S," width_desc;
        Printf.sprintf "        \"accepted_steps\": %d," s.Mcmc.accepted;
        Printf.sprintf "        \"invalid_steps\": %d," s.Mcmc.invalid;
        Printf.sprintf "        \"rejected_steps\": %d,"
          (steps - s.Mcmc.accepted - s.Mcmc.invalid);
        Printf.sprintf "        \"acceptance_rate\": %.4f," (float s.Mcmc.accepted /. float steps);
        Printf.sprintf "        \"batches\": %d," batches;
        Printf.sprintf "        \"dispatched\": %d," dispatched;
        Printf.sprintf "        \"consumed\": %d," consumed;
        Printf.sprintf "        \"lookahead_efficiency\": %.3f,"
          (float consumed /. float (max 1 dispatched));
        Printf.sprintf "        \"k_min\": %d," (if c.Mcmc.batches = 0 then 0 else c.Mcmc.k_min);
        Printf.sprintf "        \"k_max\": %d," c.Mcmc.k_max;
        Printf.sprintf "        \"k_mean\": %.3f,"
          (float c.Mcmc.k_sum /. float (max 1 c.Mcmc.batches));
        "        \"phase_us\": {";
        Printf.sprintf "          \"dispatch\": %.0f," c.Mcmc.dispatch_us;
        Printf.sprintf "          \"eval\": %.0f," c.Mcmc.eval_us;
        Printf.sprintf "          \"resolve\": %.0f," c.Mcmc.resolve_us;
        Printf.sprintf "          \"commit\": %.0f" c.Mcmc.commit_us;
        "        },";
        Printf.sprintf "        \"commit_us_per_accept\": %.3f,"
          (c.Mcmc.commit_us /. float (max 1 s.Mcmc.accepted));
        Printf.sprintf "        \"eval_us_per_dispatched\": %.3f,"
          (c.Mcmc.eval_us /. float (max 1 dispatched));
        Printf.sprintf "        \"final_energy\": %.6f," s.Mcmc.final_energy;
        Printf.sprintf "        \"wall_s\": %.3f," wall;
        Printf.sprintf "        \"steps_per_sec\": %.1f," (float steps /. wall);
        Printf.sprintf "        \"speedup_vs_jobs1\": %.3f" (ref_wall /. wall);
        "      }";
      ]
  in
  let fragment =
    String.concat "\n"
      [
        "  \"parallel\": {";
        "    \"dataset\": \"ca-GrQc\",";
        Printf.sprintf "    \"scale\": %.2f," scale;
        "    \"queries\": [\"degree_ccdf\", \"jdd\", \"tbd\"],";
        Printf.sprintf "    \"steps\": %d," steps;
        Printf.sprintf "    \"converged_warmup_steps\": %d," warmup;
        Printf.sprintf "    \"host_parallelism\": %d," host_parallelism;
        Printf.sprintf "    \"sweep_status\": %S," sweep_status;
        Printf.sprintf "    \"identical_walks\": %b," identical;
        "    \"arms\": [";
        String.concat ",\n" (List.map arm_json results);
        "    ],";
        memory_json 4;
        "  }";
      ]
  in
  (fragment, identical)

(* ---------------- Part 6: continual-observation benchmark --------------

   A supervised three-epoch stream with an injected transient failure and
   an exhausted epoch budget, so every branch of the degradation taxonomy
   (completed / merged / refused) appears in the record; then a
   head-to-head warm-vs-cold re-synthesis against the post-churn secret.
   The recorded verdicts: zero budget overspend across the degraded
   stream, and the warm start reaching the cold walk's final energy in
   strictly fewer steps. *)

module Sup = Wpinq_stream.Supervisor
module Sevent = Wpinq_stream.Event

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let stream_bench ~smoke () =
  banner "Part 6: continual-observation stream benchmark";
  let steps = if smoke then 400 else 2_000 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wpinq-stream-bench-%d" (Unix.getpid ()))
  in
  remove_tree dir;
  (* Epoch 1 fails every attempt: a forced transient failure that
     exhausts its retries and degrades to a merged epoch. *)
  let chaos ~epoch ~attempt:_ =
    if epoch = 1 then Some "injected transient fault" else None
  in
  let cfg =
    Sup.config ~steps ~pow:100.0
      ~checkpoint_every:(max 1 (steps / 4))
      ~trace_every:(max 1 (steps / 10))
      ~retries:1 ~per_epoch:2.0 ~epochs:3 ~seed:5 ()
  in
  let sup, _ = Sup.open_dir ~chaos ~config:cfg dir in
  let n = 32 in
  let secret = Gen.clustered ~n ~community:8 ~p_in:0.8 ~extra:14 (Prng.create 19) in
  let clock = ref 0 in
  let submit ?(op = Sevent.Arrive) u v =
    incr clock;
    ignore (Sup.submit sup (Sevent.make ~time:(float !clock) ~op ~u ~v))
  in
  let wall0 = Unix.gettimeofday () in
  List.iter (fun (u, v) -> submit u v) (Graph.edges secret);
  ignore (Sup.tick sup) (* epoch 0: completed (cold start) *);
  let du, dv = List.hd (Graph.edges secret) in
  submit ~op:Sevent.Depart du dv;
  submit 0 31;
  submit 3 29;
  ignore (Sup.tick sup) (* epoch 1: chaos → merged, budget rolled *);
  submit 5 27;
  submit 2 26;
  ignore (Sup.tick sup) (* epoch 2: completed (warm start, carried ε) *);
  ignore (Sup.tick sup) (* epoch 3: every epoch granted → typed refusal *);
  let wall = Unix.gettimeofday () -. wall0 in
  let outcomes = Sup.outcomes sup in
  List.iter (fun o -> Printf.printf "  %s\n" (Sup.outcome_to_string o)) outcomes;
  let count p = List.length (List.filter p outcomes) in
  let n_completed = count (function Sup.Completed _ -> true | _ -> false) in
  let n_merged = count (function Sup.Merged _ -> true | _ -> false) in
  let n_refused = count (function Sup.Refused _ -> true | _ -> false) in
  let merged_reason, merged_rolled =
    match
      List.find_opt (function Sup.Merged _ -> true | _ -> false) outcomes
    with
    | Some (Sup.Merged m) -> (m.Sup.reason, m.Sup.rolled)
    | _ -> ("", 0.0)
  in
  let books = Sup.books sup in
  let overspend = Sup.overspend sup in
  let head = Sup.head sup and consumed = Sup.consumed sup in
  Printf.printf
    "taxonomy: %d completed, %d merged, %d refused; ε granted %.2f spent %.2f \
     (overspend %.3f)\n%!"
    n_completed n_merged n_refused books.Sup.granted books.Sup.spent overspend;
  (* Warm-vs-cold re-synthesis: fit the post-churn secret twice from the
     same fresh measurements — once from a cold configuration-model seed,
     once warm-started from the stream's released synthetic — and record
     the steps each walk needs to reach the cold walk's final energy. *)
  let previous =
    match Sup.synthetic sup with
    | Some g -> g
    | None -> failwith "stream bench: no released synthetic"
  in
  let next_secret = Graph.of_edges ~n (Sup.protected_edges sup) in
  Sup.close sup;
  remove_tree dir;
  let rng = Prng.create 23 in
  let budget = Budget.create ~name:"stream-bench" 1e9 in
  let sym = Batch.source_records ~budget (Graph.directed_edges next_secret) in
  let seed_ms = Workflow.measure_seed ~rng ~epsilon:0.1 ~sym in
  let degrees = Workflow.fit_degrees seed_ms in
  let qms = Workflow.measure_queries ~rng ~epsilon:0.1 ~sym [ Workflow.Tbi ] in
  let fit_steps = if smoke then 2_000 else 10_000 in
  let run_arm seedg =
    let source, measured = Workflow.shared_measured qms in
    let fit =
      Fit.create_shared ~rng:(Prng.create 31) ~seed_graph:seedg ~source ~measured ()
    in
    let energies = Array.make (fit_steps + 1) (Fit.energy fit) in
    ignore
      (Fit.run fit ~steps:fit_steps ~pow:100.0
         ~on_step:(fun ~step ~energy -> energies.(step) <- energy)
         ());
    energies
  in
  let cold = run_arm (Workflow.seed_graph ~rng:(Prng.split_nth rng 7) ~degrees) in
  let warm = run_arm (Sup.warm_seed ~rng:(Prng.split_nth rng 8) ~degrees ~previous) in
  let tau = cold.(fit_steps) in
  let steps_to arr =
    let rec go i = if i > fit_steps then None else if arr.(i) <= tau then Some i else go (i + 1) in
    go 0
  in
  let cold_steps = Option.value ~default:fit_steps (steps_to cold) in
  let warm_steps = steps_to warm in
  let warm_beats_cold =
    match warm_steps with Some w -> w < cold_steps | None -> false
  in
  Printf.printf
    "warm vs cold (target energy %.4f): cold %d steps from energy %.4f, warm %s from \
     energy %.4f\n%!"
    tau cold_steps cold.(0)
    (match warm_steps with
    | Some w -> Printf.sprintf "%d steps" w
    | None -> "never reached it")
    warm.(0);
  let ok =
    overspend = 0.0 && n_completed >= 2 && n_merged >= 1 && n_refused >= 1
    && warm_beats_cold
  in
  let fragment =
    String.concat "\n"
      [
        "  \"stream\": {";
        Printf.sprintf "    \"epoch_steps\": %d," steps;
        Printf.sprintf "    \"per_epoch_epsilon\": %g," 2.0;
        Printf.sprintf "    \"schedule_epochs\": %d," 3;
        Printf.sprintf "    \"events_acknowledged\": %d," head;
        Printf.sprintf "    \"events_committed\": %d," consumed;
        Printf.sprintf "    \"wall_s\": %.3f," wall;
        "    \"taxonomy\": {";
        Printf.sprintf "      \"completed\": %d," n_completed;
        Printf.sprintf "      \"merged\": %d," n_merged;
        Printf.sprintf "      \"refused\": %d" n_refused;
        "    },";
        Printf.sprintf "    \"merged_reason\": %S," merged_reason;
        Printf.sprintf "    \"merged_rolled_epsilon\": %g," merged_rolled;
        "    \"books\": {";
        Printf.sprintf "      \"granted\": %g," books.Sup.granted;
        Printf.sprintf "      \"spent\": %g," books.Sup.spent;
        Printf.sprintf "      \"carried\": %g," books.Sup.carried;
        Printf.sprintf "      \"forfeited\": %g" books.Sup.forfeited;
        "    },";
        Printf.sprintf "    \"overspend\": %g," overspend;
        "    \"warm_start\": {";
        Printf.sprintf "      \"fit_steps\": %d," fit_steps;
        Printf.sprintf "      \"target_energy\": %.6f," tau;
        Printf.sprintf "      \"cold_initial_energy\": %.6f," cold.(0);
        Printf.sprintf "      \"warm_initial_energy\": %.6f," warm.(0);
        Printf.sprintf "      \"cold_steps_to_target\": %d," cold_steps;
        Printf.sprintf "      \"warm_steps_to_target\": %s,"
          (match warm_steps with Some w -> string_of_int w | None -> "null");
        Printf.sprintf "      \"warm_beats_cold\": %b" warm_beats_cold;
        "    },";
        memory_json 4;
        "  }";
      ]
  in
  (fragment, ok)

(* ---------------- Part 7: paper-scale walk arms -------------------------

   The acceptance configuration of the interned hot path: the full-scale
   ca-GrQc stand-in (scale 1.0) driven by TbI, and an Epinions-sized
   synthetic (75,879 nodes / 1,017,674 edges — the paper's Table 1 shape,
   from Gen.epinions_like) driven by degree CCDF + JDD (TbI state is
   ~Σ d² and is not a sensible incremental workload at that density).
   Runs only under --walk: the point is the recorded memory envelope and
   per-step cost at paper scale, not CI latency. *)

let paper_scale_bench () =
  banner "Part 7: paper-scale walk arms";
  let arm ~label ~dataset ~queries ~warmup ~steps make =
    Printf.printf "(%s: building fixture...)\n%!" label;
    let t_setup0 = Unix.gettimeofday () in
    let fit, nodes, edges = make () in
    let setup_s = Unix.gettimeofday () -. t_setup0 in
    ignore (Fit.run fit ~steps:warmup ~pow:10_000.0 ());
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let accepted = (Fit.run fit ~steps ~pow:10_000.0 ()).Mcmc.accepted in
    let wall = Unix.gettimeofday () -. t0 in
    let minor = Gc.minor_words () -. minor0 in
    let us = 1e6 *. wall /. float steps in
    Printf.printf
      "%s (%d nodes, %d edges): setup %.1fs, %.1f us/step, %.1f minor words/step, %d/%d \
       accepted\n%!"
      label nodes edges setup_s us
      (minor /. float steps)
      accepted steps;
    String.concat "\n"
      [
        "    {";
        Printf.sprintf "      \"label\": %S," label;
        Printf.sprintf "      \"dataset\": %S," dataset;
        Printf.sprintf "      \"nodes\": %d," nodes;
        Printf.sprintf "      \"edges\": %d," edges;
        Printf.sprintf "      \"queries\": [%s],"
          (String.concat ", " (List.map (Printf.sprintf "%S") queries));
        Printf.sprintf "      \"setup_s\": %.3f," setup_s;
        Printf.sprintf "      \"warmup_steps\": %d," warmup;
        Printf.sprintf "      \"measured_steps\": %d," steps;
        Printf.sprintf "      \"accepted_steps\": %d," accepted;
        Printf.sprintf "      \"us_per_step\": %.3f," us;
        Printf.sprintf "      \"steps_per_sec\": %.1f," (float steps /. wall);
        Printf.sprintf "      \"minor_words_per_step\": %.1f," (minor /. float steps);
        memory_json 6;
        "    }";
      ]
  in
  let grqc_arm =
    arm ~label:"ca-grqc-full" ~dataset:"ca-GrQc (stand-in, scale 1.0)" ~queries:[ "tbi" ]
      ~warmup:300 ~steps:2_000 (fun () ->
        let secret = Datasets.load ~scale:1.0 Datasets.grqc in
        (make_fit ~tbd:false 1.0, Graph.n secret, Graph.m secret))
  in
  let epinions_arm =
    arm ~label:"epinions-synthetic" ~dataset:"Epinions-like (Gen.epinions_like)"
      ~queries:[ "degree_ccdf"; "jdd" ] ~warmup:50 ~steps:300 (fun () ->
        let g = Gen.epinions_like ~n:75_879 ~m:1_017_674 (Prng.create 0xe919) in
        let rng = Prng.create 7 in
        let budget = Budget.create ~name:"bench" 1e9 in
        let sym = Batch.source_records ~budget (Graph.directed_edges g) in
        let mc = Batch.noisy_count ~rng ~epsilon:0.1 (Qb.degree_ccdf sym) in
        let mj = Batch.noisy_count ~rng ~epsilon:0.1 (Qb.jdd sym) in
        let source = Plan.source ~name:"sym" () in
        let fit =
          Fit.create_shared ~rng ~seed_graph:g ~source
            ~measured:
              [ Fit.Measured (Qp.degree_ccdf source, mc); Fit.Measured (Qp.jdd source, mj) ]
            ()
        in
        (fit, Graph.n g, Graph.m g))
  in
  String.concat "\n"
    [ "  \"paper_scale\": ["; String.concat ",\n" [ grqc_arm; epinions_arm ]; "  ]" ]

(* The first step after a build, on a fit of its own: wall time and major
   words until a step propagates (a proposal that moves nothing does not
   count), after the fit's creation and after an audit.  A build leaves
   its tables room to grow, so these steps re-allocate none: large arrays
   go straight to the major heap, and the minor heap is emptied first, so
   no promotion lands in the count. *)
let post_build_json scale =
  let fit = make_fit ~tbd:false scale in
  let first_step () =
    let engine = Fit.engine fit in
    let records = Dataflow.Engine.records_propagated engine in
    Gc.minor ();
    let major0 = (Gc.quick_stat ()).Gc.major_words and t0 = Unix.gettimeofday () in
    let steps = ref 0 in
    while Dataflow.Engine.records_propagated engine = records && !steps < 1_000 do
      ignore (Fit.run fit ~steps:1 ~pow:10_000.0 ());
      incr steps
    done;
    (1e6 *. (Unix.gettimeofday () -. t0), (Gc.quick_stat ()).Gc.major_words -. major0)
  in
  let create_us, create_words = first_step () in
  ignore (Fit.run fit ~steps:200 ~pow:10_000.0 ());
  ignore (Fit.audit fit);
  let audit_us, audit_words = first_step () in
  Printf.printf "first step after create: %.0f us, %.0f major words; after audit: %.0f us, %.0f\n%!"
    create_us create_words audit_us audit_words;
  String.concat "\n"
    [
      "    \"post_build\": {";
      Printf.sprintf "      \"create_us\": %.1f," create_us;
      Printf.sprintf "      \"create_major_words\": %.0f," create_words;
      Printf.sprintf "      \"audit_us\": %.1f," audit_us;
      Printf.sprintf "      \"audit_major_words\": %.0f," audit_words;
      Printf.sprintf "      \"major_words\": %.0f" (create_words +. audit_words);
      "    },";
    ]

(* A JDD walk on a heavy-tailed graph: every swap re-derives the degree
   part (a GroupBy part) of each endpoint it touches, which the TbI walk,
   having no GroupBy, never measures. *)
let jdd_walk_json () =
  let n, m, warmup, steps = (1_000, 10_000, 200, 2_000) in
  let fit = fit_of ~query:Workflow.Jdd (Gen.epinions_like ~n ~m (Prng.create 0xe919)) in
  ignore (Fit.run fit ~steps:warmup ~pow:10_000.0 ());
  let minor0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  ignore (Fit.run fit ~steps ~pow:10_000.0 ());
  let wall = Unix.gettimeofday () -. t0 and minor = Gc.minor_words () -. minor0 in
  let us = 1e6 *. wall /. float steps and words = minor /. float steps in
  Printf.printf
    "jdd walk (epinions-like, %d nodes, %d edges): %.1f us/step, %.1f minor words/step\n%!" n m
    us words;
  String.concat "\n"
    [
      "    \"jdd\": {";
      "      \"dataset\": \"Epinions-like (Gen.epinions_like)\",";
      Printf.sprintf "      \"nodes\": %d," n;
      Printf.sprintf "      \"edges\": %d," m;
      Printf.sprintf "      \"warmup_steps\": %d," warmup;
      Printf.sprintf "      \"measured_steps\": %d," steps;
      Printf.sprintf "      \"us_per_step\": %.3f," us;
      Printf.sprintf "      \"minor_words_per_step\": %.1f" words;
      "    },";
    ]

let walk_bench ~smoke ~json_path ?(fragments = []) () =
  banner "Part 3: speculative-walk benchmark (machine-readable)";
  let scale, warmup, steps = if smoke then (0.15, 500, 3_000) else (0.4, 2_000, 20_000) in
  let post_build = post_build_json scale in
  let jdd = jdd_walk_json () in
  Printf.printf "(ca-GrQc at scale %.2f, %d warmup + %d measured steps)\n%!" scale warmup
    steps;
  let fit = make_fit ~tbd:false scale in
  ignore (Fit.run fit ~steps:warmup ~pow:10_000.0 ());
  let engine = Fit.engine fit in
  (* Engine counters over the measured window only. *)
  let fast0 = Dataflow.Engine.join_fast_updates engine in
  let full0 = Dataflow.Engine.join_full_rescales engine in
  let work0 = Dataflow.Engine.work engine in
  let commits0 = Dataflow.Engine.commits engine in
  let aborts0 = Dataflow.Engine.aborts engine in
  let undo0 = Dataflow.Engine.undo_cells engine in
  let grows0 = Dataflow.Engine.arena_grows engine in
  let reuses0 = Dataflow.Engine.arena_reuses engine in
  let acc_t = ref 0.0 and acc_n = ref 0 in
  let rej_t = ref 0.0 and rej_n = ref 0 in
  (* One production walk; each step's time runs from the previous step's
     [on_step] to its own, and a step was accepted iff it committed. *)
  let last_t = ref 0.0 and last_commits = ref commits0 in
  let on_step ~step:_ ~energy:_ =
    let t = Unix.gettimeofday () and commits = Dataflow.Engine.commits engine in
    let dt = t -. !last_t in
    if commits > !last_commits then begin
      acc_t := !acc_t +. dt;
      incr acc_n
    end
    else begin
      rej_t := !rej_t +. dt;
      incr rej_n
    end;
    last_t := t;
    last_commits := commits
  in
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  last_t := wall0;
  ignore (Fit.run fit ~steps ~pow:10_000.0 ~on_step ());
  let wall = Unix.gettimeofday () -. wall0 in
  let minor = Gc.minor_words () -. minor0 in
  let acc_us = 1e6 *. !acc_t /. float (max 1 !acc_n) in
  let rej_us = 1e6 *. !rej_t /. float (max 1 !rej_n) in
  let ratio = rej_us /. acc_us in
  (* Cost of one defense-in-depth self-audit on the fitted state (an
     in-place fresh build checked against the live state digests), and
     whether the measured walk left any divergence behind. *)
  let audit_t0 = Unix.gettimeofday () in
  let audit_report = Fit.audit fit in
  let audit_ms = 1e3 *. (Unix.gettimeofday () -. audit_t0) in
  let oc = open_out json_path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"wpinq-speculative-walk\",\n";
  Printf.fprintf oc "  \"dataset\": \"ca-GrQc\",\n";
  Printf.fprintf oc "  \"scale\": %.2f,\n" scale;
  Printf.fprintf oc "  \"query\": \"tbi\",\n";
  Printf.fprintf oc "  \"pow\": 10000,\n";
  Printf.fprintf oc "  \"warmup_steps\": %d,\n" warmup;
  Printf.fprintf oc "  \"measured_steps\": %d,\n" steps;
  Printf.fprintf oc "  \"smoke\": %b,\n" smoke;
  (* Host metadata: wall-clock numbers (and especially the parallel arms'
     speedups) are only interpretable next to the domain budget of the
     machine that produced them. *)
  Printf.fprintf oc "  \"host\": {\n";
  Printf.fprintf oc "    \"recommended_domain_count\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.fprintf oc "    \"ocaml_version\": \"%s\",\n" Sys.ocaml_version;
  Printf.fprintf oc "    \"word_size\": %d\n" Sys.word_size;
  Printf.fprintf oc "  },\n";
  (* The baseline was recorded at the full configuration; in smoke mode it
     is context, not a like-for-like comparison. *)
  Printf.fprintf oc "%s,\n" baseline_json;
  Printf.fprintf oc "  \"current\": {\n";
  Printf.fprintf oc "    \"engine\": \"speculative (undo-log rollback on reject)\",\n";
  Printf.fprintf oc "    \"accepted_steps\": %d,\n" !acc_n;
  Printf.fprintf oc "    \"rejected_steps\": %d,\n" !rej_n;
  Printf.fprintf oc "    \"accepted_us_per_step\": %.3f,\n" acc_us;
  Printf.fprintf oc "    \"rejected_us_per_step\": %.3f,\n" rej_us;
  Printf.fprintf oc "    \"rejected_over_accepted\": %.3f,\n" ratio;
  Printf.fprintf oc "    \"steps_per_sec\": %.1f,\n" (float steps /. wall);
  Printf.fprintf oc "    \"minor_words_per_step\": %.1f,\n" (minor /. float steps);
  Printf.fprintf oc "    \"join_fast_updates\": %d,\n"
    (Dataflow.Engine.join_fast_updates engine - fast0);
  Printf.fprintf oc "    \"join_full_rescales\": %d,\n"
    (Dataflow.Engine.join_full_rescales engine - full0);
  Printf.fprintf oc "    \"work\": %d,\n" (Dataflow.Engine.work engine - work0);
  Printf.fprintf oc "    \"commits\": %d,\n" (Dataflow.Engine.commits engine - commits0);
  Printf.fprintf oc "    \"aborts\": %d,\n" (Dataflow.Engine.aborts engine - aborts0);
  Printf.fprintf oc "    \"undo_cells\": %d,\n" (Dataflow.Engine.undo_cells engine - undo0);
  Printf.fprintf oc "    \"arena_grows\": %d,\n" (Dataflow.Engine.arena_grows engine - grows0);
  Printf.fprintf oc "    \"arena_reuses\": %d,\n" (Dataflow.Engine.arena_reuses engine - reuses0);
  Printf.fprintf oc "    \"audit_cells_checked\": %d,\n"
    audit_report.Dataflow.Audit.cells_checked;
  Printf.fprintf oc "    \"audit_divergences\": %d,\n"
    (List.length audit_report.Dataflow.Audit.divergences);
  Printf.fprintf oc "    \"audit_ms\": %.3f,\n" audit_ms;
  Printf.fprintf oc "%s\n" post_build;
  Printf.fprintf oc "%s\n" jdd;
  Printf.fprintf oc "%s\n" (memory_json 4);
  (match fragments with
  | [] -> Printf.fprintf oc "  }\n"
  | frags -> Printf.fprintf oc "  },\n%s\n" (String.concat ",\n" frags));
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "accepted: %.3f us/step (%d)\n" acc_us !acc_n;
  Printf.printf "rejected: %.3f us/step (%d)\n" rej_us !rej_n;
  Printf.printf "rejected/accepted = %.3f (baseline 1.920)\n" ratio;
  Printf.printf "minor words/step = %.1f (baseline 25274.2)\n" (minor /. float steps);
  Printf.printf "self-audit: %d cells in %.3f ms, %d divergence(s)\n"
    audit_report.Dataflow.Audit.cells_checked audit_ms
    (List.length audit_report.Dataflow.Audit.divergences);
  Printf.printf "wrote %s\n%!" json_path

let () =
  let smoke = ref false in
  let walk_only = ref false in
  let multi = ref false in
  let stream = ref false in
  let jobs = ref 0 in
  let json_path = ref "BENCH_wpinq.json" in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " Run only the walk + multi + parallel benchmarks, reduced (CI-sized).");
      ("--walk", Arg.Set walk_only, " Run only the walk benchmark, at full size.");
      ( "--multi",
        Arg.Set multi,
        " Run only the walk + shared-plan multi-query benchmarks, at full size." );
      ( "--stream",
        Arg.Set stream,
        " Run only the continual-observation stream benchmark (plus a reduced walk for \
         the JSON envelope); exits nonzero on overspend, a missing degradation branch, \
         or a warm start that fails to beat the cold start." );
      ( "--jobs",
        Arg.Set_int jobs,
        "N Widest lookahead arm for the parallel benchmark (default: 4, or 2 in smoke \
         mode; arms are {1, 2, 4} capped at N, plus N itself, each run from the seed \
         graph and from a converged start; on a single-core host the sweep is skipped \
         and only jobs=1 arms run)." );
      ("--json", Arg.Set_string json_path, "PATH Where to write the benchmark JSON.");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--smoke | --walk | --multi | --stream] [--jobs N] [--json PATH]";
  let t0 = Unix.gettimeofday () in
  if not (!smoke || !walk_only || !multi || !stream) then begin
    experiments ();
    run_benchmarks ()
  end;
  (* The walk benchmark always runs; the shared-plan comparison and the
     parallel-lookahead arms ride along in every mode except walk-only and
     stream-only; the stream benchmark rides along only in the full run
     (it also has its own CI-sized mode). *)
  let fragments, identical =
    if !walk_only then ([ paper_scale_bench () ], true)
    else if !stream then begin
      let stream_fragment, ok = stream_bench ~smoke:true () in
      ([ stream_fragment ], ok)
    end
    else begin
      let max_jobs =
        if !jobs >= 1 then !jobs else if !smoke then 2 else 4
      in
      let multi_fragment = multi_bench ~smoke:!smoke () in
      let parallel_fragment, identical = parallel_bench ~smoke:!smoke ~max_jobs () in
      if !smoke || !multi then ([ multi_fragment; parallel_fragment ], identical)
      else begin
        let stream_fragment, stream_ok = stream_bench ~smoke:false () in
        ( [ multi_fragment; parallel_fragment; stream_fragment ],
          identical && stream_ok )
      end
    end
  in
  walk_bench ~smoke:(!smoke || !stream) ~json_path:!json_path ~fragments ();
  Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if not identical then begin
    prerr_endline
      "FATAL: a benchmark safety property failed (lookahead arms diverged, stream \
       overspend, or warm start losing to cold)";
    exit 1
  end
