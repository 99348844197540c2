(* Command-line driver for the paper's experiments: one subcommand per
   table/figure, plus `all` and `ablations`.  Flags expose the knobs that
   trade fidelity for runtime (MCMC steps, dataset scale, epsilon, seed). *)

open Cmdliner
module E = Wpinq_experiments.Experiments

let config_term =
  let scale =
    Arg.(value & opt float E.default.E.scale
         & info [ "scale" ] ~docv:"FACTOR" ~doc:"Dataset size multiplier.")
  in
  let steps =
    Arg.(value & opt int E.default.E.steps
         & info [ "steps" ] ~docv:"N" ~doc:"MCMC steps for fitting experiments.")
  in
  let epsilon =
    Arg.(value & opt float E.default.E.epsilon
         & info [ "epsilon" ] ~docv:"EPS"
             ~doc:
               "Per-query privacy parameter.  Below about 1e-5 the Laplace noise can carry \
                a released value past the fit engine's range (2^22), which stops the fit.")
  in
  let pow =
    Arg.(value & opt float E.default.E.pow
         & info [ "pow" ] ~docv:"POW" ~doc:"MCMC posterior sharpening exponent.")
  in
  let seed =
    Arg.(value & opt int E.default.E.seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Master PRNG seed.")
  in
  let repeats =
    Arg.(value & opt int E.default.E.repeats
         & info [ "repeats" ] ~docv:"K" ~doc:"Repetitions where variance is reported.")
  in
  let make scale steps epsilon pow seed repeats =
    { E.scale; steps; epsilon; pow; seed; repeats }
  in
  Term.(const make $ scale $ steps $ epsilon $ pow $ seed $ repeats)

let command name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ config_term)

(* `synthesize`: the end-to-end workflow on a user graph — the tool a
   data curator would actually run.  Reads a SNAP-style edge list (or a
   named stand-in), measures it under the chosen query, discards it, and
   emits a fitted synthetic graph. *)
let synthesize_cmd =
  let input =
    Arg.(value & opt (some file) None
         & info [ "input"; "i" ] ~docv:"FILE"
             ~doc:
               "Edge-list file (\"u v\" per line).  The fit's fixed-point engine holds \
                graphs with max(nodes, 2 x edges) below 2^21; the synthetic graph follows \
                the input's measured degrees, so inputs past about 1.05M edges are refused \
                before the fit is built.")
  in
  let dataset =
    Arg.(value & opt string "grqc"
         & info [ "dataset" ] ~docv:"NAME"
             ~doc:"Stand-in dataset when no $(b,--input) is given: grqc, hepph, hepth, caltech or epinions.")
  in
  let query =
    Arg.(value
         & opt (enum [ ("tbi", `Tbi); ("tbd", `Tbd); ("sbi", `Sbi); ("jdd", `Jdd); ("none", `None) ]) `Tbi
         & info [ "query" ] ~docv:"QUERY"
             ~doc:"Query for phase 2: tbi (4eps), tbd (9eps), sbi (6eps), jdd (4eps), or none (seed only).")
  in
  let also_query =
    Arg.(value
         & opt_all (enum [ ("tbi", `Tbi); ("tbd", `Tbd); ("sbi", `Sbi); ("jdd", `Jdd) ]) []
         & info [ "also-query" ] ~docv:"QUERY"
             ~doc:"Additional queries fitted together with $(b,--query) as one \
                   multi-target walk over a shared plan DAG (repeatable; each adds its \
                   derived cost to the privacy bill).")
  in
  let bucket =
    Arg.(value & opt int 5 & info [ "bucket" ] ~docv:"K" ~doc:"Degree bucket size for tbd.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the synthetic graph here.")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Write crash-recovery checkpoint generations ($(docv)/ckpt-<step>.wpq) \
                   with retention and corruption fallback.")
  in
  let checkpoint_every =
    Arg.(value & opt int 10_000
         & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Steps between checkpoints.")
  in
  let keep_checkpoints =
    Arg.(value & opt int 3
         & info [ "keep-checkpoints" ] ~docv:"K"
             ~doc:"Checkpoint generations to retain in $(b,--checkpoint-dir) (fallback \
                   depth when the newest is corrupted).")
  in
  let audit_every =
    Arg.(value & opt int 0
         & info [ "audit-every" ] ~docv:"N"
             ~doc:"Steps between engine self-audits: incremental state is cross-validated \
                   against a from-scratch batch recomputation, and divergent state is \
                   rebuilt from batch (0 disables; persisted in checkpoints).")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Parallel speculative-lookahead width for phase 2: up to $(docv) \
                   consecutive proposals are evaluated concurrently, the first on the \
                   fit's own engine and the rest on $(docv) - 1 replica engines, one \
                   per extra domain ($(docv) = 1 has no replica).  The realized walk \
                   (and every checkpoint byte) is bit-identical for every width; only \
                   wall-clock time changes.  Defaults to the machine's recommended \
                   domain count.")
  in
  let lookahead =
    Arg.(value & opt (some int) None
         & info [ "lookahead" ] ~docv:"K"
             ~doc:"Lookahead batch width for phase 2: each batch dispatches exactly \
                   $(docv) speculative proposals, a positive integer, split into \
                   contiguous slices over the $(b,--jobs) evaluators.  Defaults to \
                   $(b,--jobs).  The realized walk is bit-identical at every width; \
                   only wall-clock changes.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget for phase 2: when it expires the walk stops \
                   gracefully, writes a final checkpoint, and returns the partial \
                   result.")
  in
  let resume =
    Arg.(value & opt (some file) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Resume an interrupted fit from this single checkpoint file (the \
                   secret graph is not re-read; $(b,--input)/$(b,--query) are ignored).")
  in
  let resume_latest =
    Arg.(value & flag
         & info [ "resume-latest" ]
             ~doc:"Resume from the newest valid checkpoint generation in \
                   $(b,--checkpoint-dir), quarantining corrupted generations and \
                   falling back past them.")
  in
  let run cfg input dataset query also_query bucket output checkpoint_dir checkpoint_every
      keep_checkpoints audit_every jobs lookahead deadline resume resume_latest
      =
    let module Graph = Wpinq_graph.Graph in
    let module Io = Wpinq_graph.Io in
    let module W = Wpinq_infer.Workflow in
    let module Shutdown = Wpinq_infer.Shutdown in
    let module D = Wpinq_data.Datasets in
    Shutdown.install ();
    let stop = Shutdown.requested in
    let jobs =
      match jobs with
      | Some j when j >= 1 -> j
      | Some j -> failwith (Printf.sprintf "--jobs must be at least 1 (got %d)" j)
      | None -> Domain.recommended_domain_count ()
    in
    let width =
      match lookahead with
      | None -> None
      | Some k when k >= 1 -> Some (Wpinq_infer.Mcmc.Fixed k)
      | Some k -> failwith (Printf.sprintf "--lookahead must be a positive integer (got %d)" k)
    in
    let store () =
      match checkpoint_dir with
      | Some dir -> Wpinq_persist.Persist.Store.open_dir ~keep:keep_checkpoints dir
      | None -> failwith "--resume-latest requires --checkpoint-dir"
    in
    let r =
      match (resume, resume_latest) with
      | Some path, _ ->
          Printf.printf "resuming from %s (%d steps completed)\n" path
            (W.checkpoint_step path);
          W.resume ~stop ?deadline ~jobs ?width ~path ()
      | None, true ->
          W.resume_latest ~log:print_endline ~stop ?deadline ~jobs ?width ~store:(store ()) ()
      | None, false ->
          let secret =
            match input with
            | Some path -> Io.read path
            | None ->
                let spec =
                  match String.lowercase_ascii dataset with
                  | "grqc" -> D.grqc
                  | "hepph" -> D.hepph
                  | "hepth" -> D.hepth
                  | "caltech" -> D.caltech
                  | "epinions" -> D.epinions
                  | other -> failwith ("unknown dataset " ^ other)
                in
                D.load ~scale:cfg.E.scale spec
          in
          Printf.printf "secret graph: %d nodes, %d edges, %d triangles, r=%+.3f\n"
            (Graph.n secret) (Graph.m secret) (Graph.triangle_count secret)
            (Graph.assortativity secret);
          let of_enum = function
            | `Tbi -> W.Tbi
            | `Tbd -> W.Tbd bucket
            | `Sbi -> W.Sbi
            | `Jdd -> W.Jdd
          in
          let query =
            match query with
            | `None -> None
            | (`Tbi | `Tbd | `Sbi | `Jdd) as q -> Some (of_enum q)
          in
          let queries = List.map of_enum also_query in
          let checkpoint =
            match checkpoint_dir with
            | None -> None
            | Some _ -> Some { W.every = checkpoint_every; sink = W.Store (store ()) }
          in
          W.synthesize ~pow:cfg.E.pow ~steps:cfg.E.steps ~audit_every ~jobs
            ?width
            ?checkpoint ~stop ?deadline ~rng:(Wpinq_prng.Prng.create cfg.E.seed)
            ~epsilon:cfg.E.epsilon ~query ~queries ~secret ()
    in
    if r.W.stats.Wpinq_infer.Mcmc.interrupted then
      Printf.printf
        "interrupted after %d steps (graceful stop); final checkpoint written — resume \
         with --resume-latest\n"
        r.W.stats.Wpinq_infer.Mcmc.steps;
    if r.W.stats.Wpinq_infer.Mcmc.audits > 0 then
      Printf.printf "self-audits: %d run, %d divergence(s) detected and repaired\n"
        r.W.stats.Wpinq_infer.Mcmc.audits r.W.stats.Wpinq_infer.Mcmc.audit_divergences;
    Printf.printf "privacy spent: %.3f epsilon total\n" r.W.total_epsilon;
    Printf.printf "%10s %10s %14s %10s\n" "step" "triangles" "assortativity" "energy";
    List.iter
      (fun (p : W.trace_point) ->
        Printf.printf "%10d %10d %+14.3f %10.2f\n" p.W.step p.W.triangles p.W.assortativity
          p.W.energy)
      r.W.trace;
    Printf.printf "synthetic graph: %d nodes, %d edges, %d triangles, r=%+.3f\n"
      (Graph.n r.W.synthetic) (Graph.m r.W.synthetic)
      (Graph.triangle_count r.W.synthetic)
      (Graph.assortativity r.W.synthetic);
    match output with
    | Some path ->
        Io.write r.W.synthetic path;
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Run the full measure-and-synthesize workflow on an edge-list file.")
    Term.(
      const run $ config_term $ input $ dataset $ query $ also_query $ bucket $ output $ checkpoint_dir
      $ checkpoint_every $ keep_checkpoints $ audit_every $ jobs
      $ lookahead $ deadline
      $ resume $ resume_latest)

let cmds =
  [
    command "table1" "Graph statistics of all datasets (Table 1)." E.table1;
    command "figure3" "TbD synthesis with/without bucketing on CA-GrQc (Figure 3)." E.figure3;
    command "table2" "Triangles: seed vs MCMC vs truth under TbI (Table 2)." E.table2;
    command "figure4" "TbI triangle trajectories, real vs random (Figure 4)." E.figure4;
    command "figure5" "TbI across epsilon values (Figure 5)." E.figure5;
    command "table3" "Barabasi-Albert skew sweep statistics (Table 3)." E.table3;
    command "figure6" "Engine scalability and Epinions behaviour (Figure 6)." E.figure6;
    command "all" "Every table and figure, in paper order." E.all;
    command "baselines" "PINQ / smooth-sensitivity / worst-case comparison." E.baselines;
    command "ablations" "Design-choice ablations (see DESIGN.md)." E.ablations;
    synthesize_cmd;
  ]

let () =
  let info =
    Cmd.info "experiments" ~version:"1.0"
      ~doc:"Reproduce the evaluation of 'Calibrating Data to Sensitivity in Private Data Analysis'"
  in
  exit (Cmd.eval (Cmd.group info cmds))
