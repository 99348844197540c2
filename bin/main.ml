(* wpinq: the plan inspection driver.  `--explain` prints each Section-3
   analysis as the optimizer sees it — the hash-consed DAG before and
   after rewriting, per-source privacy multipliers, canonical hashes, and
   which rules fired — so an analyst can audit exactly what dataflow a
   submitted query lowers to and what it will be charged.  `--dot` emits
   the optimized DAGs as Graphviz, edge labels carrying the path
   multiplicities that sum to each source's ε multiplier. *)

open Cmdliner
module Plan = Wpinq_core.Plan
module Q = Wpinq_queries.Queries.Make (Plan)

type any = Any : 'a Plan.t -> any

(* The five analyses of the paper's Section 3, over one shared source —
   the same corpus the optimizer benchmark lowers. *)
let corpus src =
  [
    ("degree_ccdf", Any (Q.degree_ccdf src));
    ("jdd", Any (Q.jdd src));
    ("tbd", Any (Q.tbd src));
    ("tbi", Any (Q.tbi src));
    ("sbi", Any (Q.sbi src));
  ]

let explain_one name (Any p) =
  Printf.printf "=== %s ===\n" name;
  Printf.printf "uses: %d  (%s)\n" (Plan.uses p)
    (String.concat ", "
       (List.map (fun (s, k) -> Printf.sprintf "%s x%d" s k) (Plan.source_uses p)));
  Printf.printf "nodes: %d  hash: %s\n" (Plan.size p) (Plan.canonical_hash p);
  Format.printf "%a@." Plan.pp p;
  let o = Plan.optimize p in
  if Plan.id o = Plan.id p then print_endline "optimized: unchanged\n"
  else begin
    Printf.printf "optimized: %d nodes, hash %s (uses %d, unchanged by construction)\n"
      (Plan.size o) (Plan.canonical_hash o) (Plan.uses o);
    Format.printf "%a@." Plan.pp o;
    print_newline ()
  end;
  (name, Any o)

let run explain dot queries =
  if not (explain || dot) then (
    prerr_endline "nothing to do: pass --explain and/or --dot (see --help)";
    exit 2);
  let src = Plan.source ~name:"sym" () in
  let all = corpus src in
  let chosen =
    match queries with
    | [] -> all
    | qs ->
        List.map
          (fun q ->
            match List.assoc_opt q all with
            | Some p -> (q, p)
            | None ->
                prerr_endline
                  ("unknown query " ^ q ^ "; expected one of: "
                  ^ String.concat ", " (List.map fst all));
                exit 2)
          qs
  in
  let optimized =
    List.map
      (fun (name, any) ->
        if explain then explain_one name any
        else
          let (Any p) = any in
          (name, Any (Plan.optimize p)))
      chosen
  in
  if explain then begin
    let fires = Plan.optimizer_fires () in
    Printf.printf "rewrites fired: %s\n"
      (if fires = [] then "none"
       else
         String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s x%d" r n) fires));
    let hits, misses = Plan.plan_cache_stats () in
    let ch, cn = Plan.hashcons_stats () in
    Printf.printf "plan cache: %d hit(s), %d miss(es); hash-cons: %d hit(s), %d node(s)\n"
      hits misses ch cn
  end;
  if dot then
    List.iter (fun (name, Any o) -> print_string (Plan.to_dot ~label:name o)) optimized

let cmd =
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Print each plan before and after optimization: the deduplicated \
                   node listing, per-source privacy multipliers ($(b,uses)), node \
                   counts, canonical hashes, and the rewrites that fired.")
  in
  let dot =
    Arg.(value & flag
         & info [ "dot" ]
             ~doc:"Emit the optimized plan DAGs as Graphviz on stdout; each edge is \
                   labelled with its root-path multiplicity.")
  in
  let queries =
    Arg.(value & opt_all string []
         & info [ "query"; "q" ] ~docv:"NAME"
             ~doc:"Restrict to one analysis (repeatable): degree_ccdf, jdd, tbd, \
                   tbi or sbi.  Default: all five.")
  in
  Cmd.v
    (Cmd.info "wpinq" ~doc:"Inspect and explain reified wPINQ query plans")
    Term.(const run $ explain $ dot $ queries)

let () = exit (Cmd.eval cmd)
