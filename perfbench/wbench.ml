(* The wPINQ release benchmark: three workloads driven through the public
   entry points a user calls, timed from input to released graph.

   - grqc-tbi, epinions-jdd: [Graph.Io.read] -> [Workflow.synthesize]
     (jobs = 1, checkpoints into a [Persist.Store], self-audits) ->
     [Graph.Io.write], repeated on one seed-derived edge-list file.
   - stream-churn: [Graph.Io.read] of a base graph -> [Supervisor.open_dir]
     -> one fsynced [Supervisor.submit] per base edge -> a cold
     [Supervisor.tick], then epochs of {churn batch, tick, write}.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] prints the
   per-layer metrics: it records spans around calls into each layer's
   public functions (pass A), observes one release through its own hooks
   (pass B: the stop poll, counters, GC and RSS samples, the checkpoint
   store), and repeats that release untraced (pass C) to measure the
   tracing overhead.  Every release is checked; the result line counts the
   operations attempted and failed.  See README.md in this directory. *)

module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Datasets = Wpinq_data.Datasets
module Io = Wpinq_graph.Io
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Plan = Wpinq_core.Plan
module Dataflow = Wpinq_dataflow.Dataflow
module Store = Wpinq_persist.Persist.Store
module Workflow = Wpinq_infer.Workflow
module Fit = Wpinq_infer.Fit
module Mcmc = Wpinq_infer.Mcmc
module Sup = Wpinq_stream.Supervisor
module Event = Wpinq_stream.Event
open Obs

(* ---- Workloads -------------------------------------------------------- *)

type synth = {
  query : Workflow.query;
  epsilon : float;
  pow : float;
  steps : int;
  trace_every : int;
  ckpt_every : int;
  audit_every : int;
  dataset : unit -> Graph.t;  (** the fixed stand-in graph *)
}

type stream = {
  nodes : int;
  s_steps : int;
  s_pow : float;
  s_ckpt_every : int;
  s_audit_every : int;
  per_epoch : float;  (** allowance per epoch: 7 uses of ε = 0.1 for TbI *)
  warm_epochs : int;  (** warm epochs per session after the cold epoch 0 *)
  churn : int;  (** events per warm epoch, half departures, half arrivals *)
}

type workload = Synth of synth | Stream of stream

(* Cadences are chosen so that checkpoint, audit and trace steps never
   coincide: each stall is then read off its own steps. *)
let workload ~tiny = function
  | "grqc-tbi" ->
      let scale = if tiny then 0.1 else 1.0 in
      Synth
        {
          query = Workflow.Tbi;
          epsilon = 0.1;
          pow = 10_000.0;
          steps = (if tiny then 240 else 2000);
          trace_every = (if tiny then 70 else 300);
          ckpt_every = (if tiny then 100 else 1000);
          audit_every = (if tiny then 110 else 1100);
          dataset = (fun () -> Datasets.load ~scale Datasets.grqc);
        }
  | "epinions-jdd" ->
      Synth
        {
          query = Workflow.Jdd;
          epsilon = 0.1;
          pow = 10_000.0;
          steps = (if tiny then 240 else 600);
          trace_every = (if tiny then 70 else 250);
          ckpt_every = (if tiny then 100 else 300);
          audit_every = (if tiny then 110 else 400);
          dataset =
            (fun () ->
              let n, m = if tiny then (400, 2000) else (1000, 10_000) in
              Gen.epinions_like ~n ~m (Prng.create 0xe919));
        }
  | "stream-churn" ->
      Stream
        {
          nodes = (if tiny then 40 else 120);
          s_steps = (if tiny then 60 else 300);
          s_pow = 100.0;
          s_ckpt_every = (if tiny then 25 else 100);
          s_audit_every = (if tiny then 40 else 130);
          per_epoch = 0.7;
          warm_epochs = (if tiny then 3 else 6);
          churn = (if tiny then 4 else 20);
        }
  | w -> invalid_arg ("unknown workload " ^ w)

(* The stream's base secret: the bin/stream.exe generator's shape. *)
let stream_dataset st =
  Gen.clustered ~n:st.nodes ~community:(max 2 (st.nodes / 6)) ~p_in:0.8 ~extra:(st.nodes / 2)
    (Prng.create 0x57e4)

(* Inputs and chains are pure functions of the seed.  A workload's graph
   is one fixed stand-in, as the paper's datasets are; the seed draws a
   random relabelling and edge order of it, the measurement noise and the
   walk.  Seeds therefore differ in every bit the program sees but not in
   the graph's shape (n, m, Σd²), so runs compare like with like. *)
let input_rng seed = Prng.split_nth (Prng.create seed) 0
let walk_rng seed = Prng.split_nth (Prng.create seed) 1
let churn_rng seed = Prng.split_nth (Prng.create seed) 2

let relabel g seed =
  let rng = input_rng seed in
  let perm = Array.init (Graph.n g) Fun.id in
  Prng.shuffle rng perm;
  let edges = Array.of_list (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g)) in
  Prng.shuffle rng edges;
  Graph.of_edges ~n:(Graph.n g) (Array.to_list edges)

(* ---- Operation accounting --------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

(* [attempt label f] counts one operation; [f] returns its value and the
   output checks it failed.  A raise or a failed check fails the
   operation. *)
let attempt label f =
  incr attempted;
  match f () with
  | v, [] -> Some v
  | v, errs ->
      incr failed;
      problems := List.rev_map (fun e -> label ^ ": " ^ e) errs @ !problems;
      Some v
  | exception e ->
      incr failed;
      problems := (label ^ ": raised " ^ Printexc.to_string e) :: !problems;
      None

let checks l = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) l
let sorted_edges g = List.sort compare (Graph.edges g)
let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* ---- Synthesis releases ----------------------------------------------- *)

type release = {
  result : Workflow.result;
  started : float;
  setup_s : float;  (** run start -> first stop poll *)
  synth_s : float;  (** the [synthesize] call *)
  walk_s : float;  (** first stop poll -> [synthesize] returned *)
  write_s : float;
  release_s : float;  (** [Io.read] start -> [Io.write] done *)
  digest : string;
}

(* One user-path release.  [stop] is the CLI's graceful-stop callback;
   [first_poll] is set by it at the first poll. *)
let synth_release cfg ~stop ~first_poll ?counters ?(on_return = ignore) ~input ~output
    ~store_dir ~seed () =
  fresh_dir store_dir;
  first_poll := 0.0;
  let t0 = now () in
  let secret = Io.read input in
  let t_read = now () in
  let store = Store.open_dir ~keep:3 store_dir in
  let result =
    Workflow.synthesize ~pow:cfg.pow ~steps:cfg.steps ~trace_every:cfg.trace_every
      ~audit_every:cfg.audit_every ~jobs:1 ?counters
      ~checkpoint:{ Workflow.every = cfg.ckpt_every; sink = Workflow.Store store }
      ~stop ~rng:(walk_rng seed) ~epsilon:cfg.epsilon ~query:(Some cfg.query) ~secret ()
  in
  let t_ret = now () in
  on_return ();
  Io.write result.Workflow.synthetic output;
  let t_end = now () in
  {
    result;
    started = t0;
    setup_s = !first_poll -. t0;
    synth_s = t_ret -. t_read;
    walk_s = t_ret -. !first_poll;
    write_s = t_end -. t_ret;
    release_s = t_end -. t0;
    digest = Digest.to_hex (Digest.file output);
  }

let release_checks cfg ~output r =
  let res = r.result in
  let st = res.Workflow.stats in
  let reread = Io.read output in
  let expected = (3.0 +. Workflow.query_cost cfg.query 1.0) *. cfg.epsilon in
  checks
    [
      ( Graph.n reread = Graph.n res.Workflow.synthetic
        && sorted_edges reread = sorted_edges res.Workflow.synthetic,
        "written edge list does not re-read equal to the synthetic graph" );
      ( Graph.degrees res.Workflow.synthetic = Graph.degrees res.Workflow.seed,
        "synthetic degree sequence differs from the seed's" );
      ( Float.abs (res.Workflow.total_epsilon -. expected) <= 1e-9 *. expected,
        Printf.sprintf "total_epsilon %.17g, expected %.17g" res.Workflow.total_epsilon
          expected );
      (st.Mcmc.steps = cfg.steps, Printf.sprintf "%d steps, requested %d" st.Mcmc.steps cfg.steps);
      (not st.Mcmc.interrupted, "walk interrupted");
      (st.Mcmc.audits = cfg.steps / cfg.audit_every, Printf.sprintf "%d audits" st.Mcmc.audits);
      ( st.Mcmc.audit_divergences = 0,
        Printf.sprintf "%d audit divergences" st.Mcmc.audit_divergences );
      (r.setup_s > 0.0 && r.walk_s > 0.0, "stop callback never polled");
    ]

let light_stop first_poll () =
  if !first_poll = 0.0 then first_poll := now ();
  false

(* Pass B's stop callback: stamps every poll (one step per batch at
   jobs = 1) and samples GC and RSS at the first. *)
type probe = {
  stamps : float array;
  mutable polls : int;
  mutable gc0 : Gc.stat;
  mutable rss0 : float;
}

let probe steps =
  { stamps = Array.make (steps + 1) 0.0; polls = 0; gc0 = Gc.quick_stat (); rss0 = 0.0 }

let traced_stop p first_poll () =
  if p.polls = 0 then begin
    first_poll := now ();
    p.gc0 <- Gc.quick_stat ();
    p.rss0 <- rss_mb ()
  end;
  if p.polls < Array.length p.stamps then p.stamps.(p.polls) <- now ();
  p.polls <- p.polls + 1;
  false

(* Per-step metrics from pass B's poll stamps.  Interval [j] runs step [j]:
   its proposal, and the trace/audit/checkpoint work of that step. *)
let walk_layer_metrics ~steps ~ckpt_every ~audit_every p ~gc1 ~rss1 (c : Mcmc.counters)
    (st : Mcmc.stats) =
  let n = min p.polls (Array.length p.stamps) in
  let all = ref [] and ck = ref [] and au = ref [] in
  for j = n - 1 downto 1 do
    let d = p.stamps.(j) -. p.stamps.(j - 1) in
    all := d :: !all;
    let is_ck = j mod ckpt_every = 0 and is_au = j mod audit_every = 0 in
    if is_ck && not is_au then ck := d :: !ck else if is_au && not is_ck then au := d :: !au
  done;
  let p50 = median !all in
  let a = Array.of_list !all in
  let q = max 1 (Array.length a / 4) in
  let slice off = Array.to_list (Array.sub a off q) in
  let steps_f = float_of_int steps in
  [
    ("walk.step_p50_us", 1e6 *. p50, "us");
    ("walk.step_p999_us", 1e6 *. quantile 0.999 !all, "us");
    ("walk.step_samples", float_of_int (List.length !all), "count");
    ("walk.drift", median (slice (Array.length a - q)) /. median (slice 0), "ratio");
    ("walk.ckpt_stall_ms", 1e3 *. (median !ck -. p50), "ms");
    ("walk.audit_stall_ms", 1e3 *. (median !au -. p50), "ms");
    ("mcmc.eval_us_per_step", c.Mcmc.eval_us /. steps_f, "us");
    ("mcmc.resolve_us_per_step", c.Mcmc.resolve_us /. steps_f, "us");
    ( "mcmc.commit_us_per_accept",
      c.Mcmc.commit_us /. float_of_int (max 1 st.Mcmc.accepted),
      "us" );
    ("mcmc.accept_rate", float_of_int st.Mcmc.accepted /. steps_f, "ratio");
    ( "walk.minor_words_per_step",
      (gc1.Gc.minor_words -. p.gc0.Gc.minor_words) /. steps_f,
      "words" );
    ( "walk.heap_growth_mw",
      float_of_int (gc1.Gc.heap_words - p.gc0.Gc.heap_words) /. 1e6,
      "Mwords" );
    ("walk.rss_growth_mb", rss1 -. p.rss0, "MB");
  ]

let newest_ckpt_bytes store_dir =
  match Store.generations (Store.open_dir ~keep:3 store_dir) with
  | (_, path) :: _ -> float_of_int (Unix.stat path).Unix.st_size
  | [] -> 0.0

(* ---- Pass A: the phases of one release, each in its own span ---------- *)

type phases = {
  seed_graph : Graph.t;
  initial_energy : float;  (** the fit's energy right after construction *)
  read_s : float;
  setup_sum : float;  (** measurement through fit construction *)
  metrics : (string * float * string) list;
}

(* [pass_a] calls, in the release's order and on its rng, the public
   functions a release is made of.  [secret_source] builds the protected
   source under [budget]; [seed_of] makes the starting graph. *)
let pass_a ~seed_first ~read ~secret_source ~budget_total ~epsilon ~queries ~rng ~seed_of =
  let parent = "pass-a" in
  let secret, read_s = span ~parent "io.read" read in
  let (sym, seed_ms), seed_s =
    span ~parent "measure.seed" (fun () ->
        let budget = Budget.create ~name:"secret" budget_total in
        let sym = secret_source ~budget secret in
        (sym, Workflow.measure_seed ~rng ~epsilon ~sym))
  in
  let degrees, degrees_s =
    span ~parent "postprocess.degrees" (fun () -> Workflow.fit_degrees seed_ms)
  in
  let seed () = span ~parent "graph.seed" (fun () -> seed_of ~rng ~degrees) in
  let queries () =
    span ~parent "measure.queries" (fun () -> Workflow.measure_queries ~rng ~epsilon ~sym queries)
  in
  (* [synthesize] draws the seed graph before the query noise; a stream
     epoch measures everything first. *)
  let (seed_graph, gseed_s), (qms, queries_s) =
    if seed_first then
      let sg = seed () in
      (sg, queries ())
    else
      let q = queries () in
      (seed (), q)
  in
  let (source, measured, fit), create_s =
    span ~parent "fit.create" (fun () ->
        let source, measured = Workflow.shared_measured qms in
        (source, measured, Fit.create_shared ~rng ~seed_graph ~source ~measured ()))
  in
  let engine = Fit.engine fit in
  let initial_energy = Fit.energy fit in
  let report, audit_s = span ~parent "fit.audit" (fun () -> Fit.audit fit) in
  let (), rebuild_s =
    span ~parent "fit.rebuild" (fun () ->
        Fit.rebuild_shared fit ~n:(Fit.nodes fit) ~edges:(Fit.edge_array fit) ~source ~measured)
  in
  if report.Dataflow.Audit.divergences <> [] then
    problems := "pass A: audit of the fresh fit diverged" :: !problems;
  {
    seed_graph;
    initial_energy;
    read_s;
    setup_sum = seed_s +. degrees_s +. gseed_s +. queries_s +. create_s;
    metrics =
      [
        ("io.read_s", read_s, "s");
        ("measure.seed_s", seed_s, "s");
        ("postprocess.degrees_s", degrees_s, "s");
        ("graph.seed_s", gseed_s, "s");
        ("measure.queries_s", queries_s, "s");
        ("fit.create_s", create_s, "s");
        ("dataflow.state_records", float_of_int (Dataflow.Engine.state_records engine), "count");
        ("dataflow.nodes_built", float_of_int (Dataflow.Engine.nodes_built engine), "count");
        ("dataflow.nodes_shared", float_of_int (Dataflow.Engine.nodes_shared engine), "count");
        ("fit.audit_s", audit_s, "s");
        ("fit.rebuild_s", rebuild_s, "s");
      ];
  }

(* ---- Supervisor calls -------------------------------------------------- *)

let stream_config st ~seed =
  Sup.config ~queries:[ Workflow.Tbi ] ~steps:st.s_steps ~pow:st.s_pow ~jobs:1
    ~audit_every:st.s_audit_every ~checkpoint_every:st.s_ckpt_every ~fsync:true
    ~per_epoch:st.per_epoch ~epochs:(st.warm_epochs + 1) ~seed ()

(* One acknowledged submit; returns the acknowledgement latency in µs. *)
let timed_submit sup op (u, v) =
  let ev = Event.make ~time:(float_of_int (Sup.head sup + 1)) ~op ~u ~v in
  let t = now () in
  ignore (Sup.submit sup ev);
  1e6 *. (now () -. t)

(* ---- Stream sessions -------------------------------------------------- *)

type session = {
  s_setup_s : float;
  acks_us : float list;
  bytes_per_event : float;
  cold_s : float;
  cold : Sup.completed option;
  warm : (Sup.completed * float * float * float) list;
      (** outcome, tick seconds, release seconds, write seconds *)
  dir_bytes : int;
  sizes : (int * int * int) list;
      (** traced: events journal, epoch journal and whole directory bytes
          after each warm tick *)
  last_digest : string;
}

(* The client's view of the protected edge set, for churn that keeps the
   edge count steady: each batch departs [churn / 2] present edges and
   adds as many absent ones. *)
type client = {
  present : (int * int, int) Hashtbl.t;  (** edge -> its index in [edges] *)
  mutable edges : (int * int) array;
  mutable len : int;
}

let client_of g =
  let edges = Array.of_list (Graph.edges g) in
  let present = Hashtbl.create (Array.length edges) in
  Array.iteri (fun i e -> Hashtbl.replace present e i) edges;
  { present; edges; len = Array.length edges }

let depart c rng =
  let i = Prng.int rng c.len in
  let e = c.edges.(i) in
  let last = c.edges.(c.len - 1) in
  c.edges.(i) <- last;
  Hashtbl.replace c.present last i;
  Hashtbl.remove c.present e;
  c.len <- c.len - 1;
  e

let rec arrive c rng ~nodes =
  let u = Prng.int rng nodes and v = Prng.int rng nodes in
  let e = (min u v, max u v) in
  if u = v || Hashtbl.mem c.present e then arrive c rng ~nodes
  else begin
    if c.len = Array.length c.edges then
      c.edges <- Array.append c.edges (Array.make (max 16 c.len) (0, 0));
    c.edges.(c.len) <- e;
    Hashtbl.replace c.present e c.len;
    c.len <- c.len + 1;
    e
  end

let stream_session st ~traced ~base_file ~dir ~output ~seed =
  let timed name f =
    if traced then span ~parent:"session" name f
    else
      let t = now () in
      let r = f () in
      (r, now () -. t)
  in
  let acks = ref [] in
  let submit sup op e =
    ignore
      (attempt "submit" (fun () ->
           let us, _ = timed "supervisor.submit" (fun () -> timed_submit sup op e) in
           acks := us :: !acks;
           ((), [])))
  in
  let completed label o =
    match o with
    | Some (Sup.Completed c) -> (Some c, [])
    | Some o -> (None, [ label ^ ": " ^ Sup.outcome_to_string o ])
    | None -> (None, [ label ^ ": interrupted" ])
  in
  remove_tree dir;
  let t0 = now () in
  let base, _ = timed "io.read" (fun () -> Io.read base_file) in
  let (sup, _), _ =
    timed "supervisor.open_dir" (fun () -> Sup.open_dir ~config:(stream_config st ~seed) dir)
  in
  let client = client_of base in
  List.iter (submit sup Event.Arrive) (Graph.edges base);
  let events = Sup.head sup in
  let journal = dir_bytes (Filename.concat dir "events") in
  let tick label =
    timed "supervisor.tick" (fun () -> attempt label (fun () -> completed label (Sup.tick sup)))
  in
  let cold, cold_s = tick "epoch 0" in
  let setup = now () -. t0 in
  let rng = churn_rng seed in
  let warm = ref [] and digest = ref "" and sizes = ref [] in
  for e = 1 to st.warm_epochs do
    let te = now () in
    for _ = 1 to st.churn / 2 do
      submit sup Event.Depart (depart client rng)
    done;
    for _ = 1 to st.churn - (st.churn / 2) do
      submit sup Event.Arrive (arrive client rng ~nodes:st.nodes)
    done;
    let label = Printf.sprintf "epoch %d" e in
    let o, tick_s = tick label in
    match o with
    | Some (Some c) ->
        let (), write_s =
          timed "io.write" (fun () ->
              match Sup.synthetic sup with
              | Some g -> Io.write g output
              | None -> problems := (label ^ ": no synthetic graph") :: !problems)
        in
        digest := Digest.to_hex (Digest.file output);
        warm := (c, tick_s, now () -. te, write_s) :: !warm;
        if traced then
          sizes :=
            ( dir_bytes (Filename.concat dir "events"),
              dir_bytes (Filename.concat dir "epochs"),
              dir_bytes dir )
            :: !sizes
    | _ -> ()
  done;
  let final_checks =
    checks
      [
        (Sup.overspend sup = 0.0, Printf.sprintf "overspend %.17g" (Sup.overspend sup));
        ( Sup.consumed sup = Sup.head sup,
          Printf.sprintf "consumed %d <> head %d" (Sup.consumed sup) (Sup.head sup) );
        (client.len = Graph.m base, "churn changed the edge count");
      ]
  in
  if final_checks <> [] then begin
    incr failed;
    problems := List.map (fun m -> "session: " ^ m) final_checks @ !problems
  end;
  let bytes = dir_bytes dir in
  Sup.close sup;
  {
    s_setup_s = setup;
    acks_us = !acks;
    bytes_per_event = float_of_int journal /. float_of_int (max 1 events);
    cold_s;
    cold = Option.join cold;
    warm = List.rev !warm;
    dir_bytes = bytes;
    sizes = List.rev !sizes;
    last_digest = !digest;
  }

(* ---- Durable ingestion of a synthesis input ---------------------------- *)

(* The synthesis workloads have no event path of their own; their traced
   run feeds the first [limit] input edges through the stream's durable
   submit path, so the Ingest/Journal metrics are measured on every
   workload. *)
let ingest_probe ~dir ~edges ~limit =
  remove_tree dir;
  let sup, _ = Sup.open_dir ~config:(Sup.config ~fsync:true ~per_epoch:1.0 ~epochs:1 ()) dir in
  let acks =
    List.filteri (fun i _ -> i < limit) edges
    |> List.filter_map (fun e ->
           attempt "submit" (fun () -> (timed_submit sup Event.Arrive e, [])))
  in
  let bytes = dir_bytes (Filename.concat dir "events") in
  Sup.close sup;
  (acks, float_of_int bytes /. float_of_int (max 1 (List.length acks)))

(* ---- Runs ------------------------------------------------------------- *)

type outcome = {
  metrics : (string * float * string) list;
  input : Graph.t;
  digest : string;  (** MD5 of the first released edge list *)
  energy : float;  (** final energy of the first release *)
  samples : (string * float list) list;  (** the per-operation values behind medians *)
}

(* At least three operations, so every run has a median of set-ups. *)
let repeat ~seconds f =
  let min_ops = 3 in
  let deadline = now () +. seconds in
  let rec go i acc =
    if i >= min_ops && now () >= deadline then List.rev acc
    else begin
      Gc.compact ();
      go (i + 1) (match f i with Some r -> r :: acc | None -> acc)
    end
  in
  go 0 []

(* Same-seed releases must be bit-identical: every repeat is checked
   against the first. *)
let same_as_first label first ~digest ~energy =
  match !first with
  | None ->
      first := Some (digest, energy);
      []
  | Some (d, e) ->
      checks
        [
          (d = digest, label ^ " released a different edge list than the first");
          (bits e = bits energy, label ^ " reached a different final energy than the first");
        ]

let synth_paths work =
  ( Filename.concat work "input.txt",
    Filename.concat work "release.txt",
    Filename.concat work "ckpt" )

let synth_e2e cfg ~work ~seed ~seconds =
  let input, output, store_dir = synth_paths work in
  let secret = relabel (cfg.dataset ()) seed in
  Io.write secret input;
  let first_poll = ref 0.0 and first = ref None in
  let ops =
    repeat ~seconds (fun i ->
        let label = Printf.sprintf "release %d" i in
        attempt label (fun () ->
            let r =
              synth_release cfg ~stop:(light_stop first_poll) ~first_poll ~input ~output
                ~store_dir ~seed ()
            in
            let e = r.result.Workflow.stats.Mcmc.final_energy in
            ( r,
              release_checks cfg ~output r
              @ same_as_first label first ~digest:r.digest ~energy:e )))
  in
  let steps_f = float_of_int cfg.steps in
  let digest, energy = Option.value !first ~default:("", nan) in
  {
    metrics =
      [
        ("setup_s", median (List.map (fun r -> r.setup_s) ops), "s");
        ("release_s", median (List.map (fun r -> r.release_s) ops), "s");
        ("walk_steps_per_s", median (List.map (fun r -> steps_f /. r.walk_s) ops), "steps/s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("final_energy", energy, "energy");
        ("releases", float_of_int (List.length ops), "count");
      ];
    input = secret;
    digest;
    energy;
    samples =
      [
        ("setup_s", List.map (fun r -> r.setup_s) ops);
        ("release_s", List.map (fun r -> r.release_s) ops);
        ("walk_s", List.map (fun r -> r.walk_s) ops);
      ];
  }

let synth_phases cfg ~input ~seed =
  pass_a ~seed_first:true
    ~read:(fun () -> Io.read input)
    ~secret_source:(fun ~budget g -> Batch.source_records ~budget (Graph.directed_edges g))
    ~budget_total:((3.0 +. Workflow.query_cost cfg.query 1.0) *. cfg.epsilon)
    ~epsilon:cfg.epsilon ~queries:[ cfg.query ] ~rng:(walk_rng seed)
    ~seed_of:(fun ~rng ~degrees -> Workflow.seed_graph ~rng ~degrees)

let plan_cache_metrics () =
  let hits, misses = Plan.plan_cache_stats () in
  [
    ("plan.cache_hits", float_of_int hits, "count");
    ("plan.cache_misses", float_of_int misses, "count");
  ]

(* Setup coverage: the share of pass B's setup that pass A's spans
   account for; the remainder is work no span names (pool replica build,
   step-0 snapshot and rebase). *)
let coverage_metrics ~attributed ~setup =
  [
    ("setup.unattributed_s", setup -. attributed, "s");
    ("setup.coverage", attributed /. setup, "ratio");
  ]

let ingest_metrics acks ~bytes_per_event =
  [
    ("ingest.ack_p50_us", median acks, "us");
    ("ingest.ack_p99_us", quantile 0.99 acks, "us");
    ("ingest.acks", float_of_int (List.length acks), "count");
    ("ingest.bytes_per_event", bytes_per_event, "B/event");
  ]

let push_release_spans name (r : release) =
  let t0 = r.started in
  let sp label start stop = { name = name ^ "." ^ label; start; stop; parent = Some name } in
  spans :=
    sp "write" (t0 +. r.release_s -. r.write_s) (t0 +. r.release_s)
    :: sp "walk" (t0 +. r.setup_s) (t0 +. r.setup_s +. r.walk_s)
    :: sp "setup" t0 (t0 +. r.setup_s)
    :: !spans

(* Passes B and C.  [run] makes one release; pass B observes it through
   its own hooks (every stop poll stamped, GC and RSS sampled at the first
   poll and on return, the walk's counters), pass C repeats it untraced.
   Both must pass [check] and release the same bytes: tracing is
   bit-neutral. *)
let observe ~label ~steps ~ckpt_every ~audit_every ~check run =
  Gc.compact ();
  let p = probe steps and counters = Mcmc.counters () and first_poll = ref 0.0 in
  let gc1 = ref (Gc.quick_stat ()) and rss1 = ref 0.0 in
  let on_return () =
    gc1 := Gc.quick_stat ();
    rss1 := rss_mb ()
  in
  let b =
    attempt (label ^ " B") (fun () ->
        let (r : release) =
          run ~store:"b" ~stop:(traced_stop p first_poll) ~first_poll ~counters:(Some counters)
            ~on_return
        in
        (r, check r))
  in
  Gc.compact ();
  let c =
    attempt (label ^ " C") (fun () ->
        let (r : release) =
          run ~store:"c" ~stop:(light_stop first_poll) ~first_poll ~counters:None
            ~on_return:ignore
        in
        let same =
          match b with
          | Some (rb : release) ->
              checks [ (rb.digest = r.digest, "tracing changed the released edge list") ]
          | None -> []
        in
        (r, check r @ same))
  in
  match (b, c) with
  | Some b, Some c ->
      push_release_spans "pass-b" b;
      Some
        ( b,
          walk_layer_metrics ~steps ~ckpt_every ~audit_every p ~gc1:!gc1 ~rss1:!rss1 counters
            b.result.Workflow.stats
          @ [ ("trace.overhead", c.walk_s /. b.walk_s, "ratio") ],
          c )
  | _ -> None

let synth_traced cfg ~work ~seed =
  let input, output, _ = synth_paths work in
  let secret = relabel (cfg.dataset ()) seed in
  Io.write secret input;
  let ph = synth_phases cfg ~input ~seed in
  let store_dir tag = Filename.concat work ("ckpt-" ^ tag) in
  let observed =
    observe ~label:"release" ~steps:cfg.steps ~ckpt_every:cfg.ckpt_every
      ~audit_every:cfg.audit_every
      ~check:(fun r ->
        release_checks cfg ~output r
        @ checks
            [
              ( sorted_edges ph.seed_graph = sorted_edges r.result.Workflow.seed,
                "pass A seed graph differs from the release's" );
            ])
      (fun ~store ~stop ~first_poll ~counters ~on_return ->
        synth_release cfg ~stop ~first_poll ?counters ~on_return ~input ~output
          ~store_dir:(store_dir store) ~seed ())
  in
  let acks, bytes_per_event =
    ingest_probe ~dir:(Filename.concat work "ingest") ~edges:(Graph.edges secret) ~limit:3000
  in
  match observed with
  | Some (b, walk, c) ->
      {
        metrics =
          ph.metrics
          @ [ ("io.write_s", b.write_s, "s") ]
          @ plan_cache_metrics ()
          @ coverage_metrics ~attributed:(ph.read_s +. ph.setup_sum) ~setup:b.setup_s
          @ walk
          @ [
              ("persist.ckpt_bytes", newest_ckpt_bytes (store_dir "b"), "B");
              ("persist.dir_bytes", float_of_int (dir_bytes (store_dir "b")), "B");
              ("epoch.cold_s", b.synth_s, "s");
              ("epoch.tick_p50_s", c.synth_s, "s");
              ("epoch.drift", 0.0, "ratio");
            ]
          @ ingest_metrics acks ~bytes_per_event;
        input = secret;
        digest = b.digest;
        energy = b.result.Workflow.stats.Mcmc.final_energy;
        samples = [];
      }
  | None -> { metrics = []; input = secret; digest = ""; energy = nan; samples = [] }

(* ---- Stream runs ------------------------------------------------------- *)

let stream_paths work =
  ( Filename.concat work "base.txt",
    Filename.concat work "sup",
    Filename.concat work "release.txt" )

let warm_ticks s = List.map (fun (_, tick, _, _) -> tick) s.warm

let stream_e2e st ~work ~seed ~seconds =
  let base_file, dir, output = stream_paths work in
  let base = relabel (stream_dataset st) seed in
  Io.write base base_file;
  let first = ref None in
  let sessions =
    repeat ~seconds (fun i ->
        let s = stream_session st ~traced:false ~base_file ~dir ~output ~seed in
        let energy =
          List.fold_left (fun acc (c, _, _, _) -> acc +. c.Sup.final_energy) 0.0 s.warm
        in
        match same_as_first (Printf.sprintf "session %d" i) first ~digest:s.last_digest ~energy with
        | [] -> Some s
        | errs ->
            incr failed;
            problems := errs @ !problems;
            Some s)
  in
  let warm = List.concat_map (fun s -> s.warm) sessions in
  let ticks = List.concat_map warm_ticks sessions in
  let digest, _ = Option.value !first ~default:("", nan) in
  let energy = median (List.map (fun (c, _, _, _) -> c.Sup.final_energy) warm) in
  {
    metrics =
      [
        ("setup_s", median (List.map (fun s -> s.s_setup_s) sessions), "s");
        ("release_s", median (List.map (fun (_, _, r, _) -> r) warm), "s");
        ( "walk_steps_per_s",
          float_of_int (st.s_steps * List.length ticks) /. sum ticks,
          "steps/s" );
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("final_energy", energy, "energy");
        ("sessions", float_of_int (List.length sessions), "count");
      ];
    input = base;
    digest;
    energy;
    samples =
      [
        ("setup_s", List.map (fun s -> s.s_setup_s) sessions);
        ("release_s", List.map (fun (_, _, r, _) -> r) warm);
        ("tick_s", ticks);
      ];
  }

(* The supervisor's epoch 0, replayed through the same public calls its
   tick makes: the measurement rows of the base graph, the epoch rng
   [split_nth (create seed) 0], and ε per use = allowance / uses. *)
let stream_epoch0 st ~base ~seed =
  let rows = List.sort compare (List.map (fun e -> (e, 1.0)) (Graph.directed_edges base)) in
  let per_use = st.per_epoch /. (3.0 +. Workflow.query_cost Workflow.Tbi 1.0) in
  let rng () = Prng.split_nth (Prng.create seed) 0 in
  (rows, per_use, rng)

let stream_fit st ~base ~seed ~stop ~first_poll ?counters ?(on_return = ignore) ~store_dir () =
  let rows, per_use, rng = stream_epoch0 st ~base ~seed in
  fresh_dir store_dir;
  first_poll := 0.0;
  let t0 = now () in
  let rng = rng () in
  let budget = Budget.create ~name:"stream-secret" st.per_epoch in
  let sym = Batch.source ~budget rows in
  let seed_ms = Workflow.measure_seed ~rng ~epsilon:per_use ~sym in
  let degrees = Workflow.fit_degrees seed_ms in
  let qms = Workflow.measure_queries ~rng ~epsilon:per_use ~sym [ Workflow.Tbi ] in
  let warm = Workflow.seed_graph ~rng ~degrees in
  let store = Store.open_dir ~keep:3 store_dir in
  let result =
    Workflow.fit_stream ~pow:st.s_pow ~steps:st.s_steps ~audit_every:st.s_audit_every ~jobs:1
      ?counters
      ~checkpoint:{ Workflow.every = st.s_ckpt_every; sink = Workflow.Store store }
      ~stop ~rng ~budget ~epsilon:per_use ~warm ~qms ~epoch:0 ~stream_seq:(Graph.m base) ()
  in
  let t_ret = now () in
  on_return ();
  {
    result;
    started = t0;
    setup_s = !first_poll -. t0;
    synth_s = t_ret -. t0;
    walk_s = t_ret -. !first_poll;
    write_s = 0.0;
    release_s = t_ret -. t0;
    digest = "";
  }

let stream_traced st ~work ~seed =
  let base_file, dir, output = stream_paths work in
  let base = relabel (stream_dataset st) seed in
  Io.write base base_file;
  let s, _ =
    span "session" (fun () -> stream_session st ~traced:true ~base_file ~dir ~output ~seed)
  in
  Gc.compact ();
  let rows, per_use, rng = stream_epoch0 st ~base ~seed in
  let ph =
    pass_a ~seed_first:false
      ~read:(fun () -> Io.read base_file)
      ~secret_source:(fun ~budget _ -> Batch.source ~budget rows)
      ~budget_total:st.per_epoch ~epsilon:per_use ~queries:[ Workflow.Tbi ] ~rng:(rng ())
      ~seed_of:(fun ~rng ~degrees -> Workflow.seed_graph ~rng ~degrees)
  in
  let store_dir tag = Filename.concat work ("ckpt-" ^ tag) in
  let matches_epoch0 (r : release) =
    match s.cold with
    | Some c ->
        checks
          [
            ( bits r.result.Workflow.stats.Mcmc.final_energy = bits c.Sup.final_energy,
              "replayed epoch 0 reached a different final energy than the tick" );
            ( bits ph.initial_energy = bits c.Sup.initial_energy,
              "pass A fit energy differs from epoch 0's initial energy" );
          ]
    | None -> [ "no completed epoch 0 to compare" ]
  in
  let observed =
    observe ~label:"epoch 0 replay" ~steps:st.s_steps ~ckpt_every:st.s_ckpt_every
      ~audit_every:st.s_audit_every ~check:matches_epoch0
      (fun ~store ~stop ~first_poll ~counters ~on_return ->
        stream_fit st ~base ~seed ~stop ~first_poll ?counters ~on_return
          ~store_dir:(store_dir store) ())
  in
  let ticks = warm_ticks s in
  let a = Array.of_list ticks in
  let q = max 1 (Array.length a / 4) in
  let slice off = Array.to_list (Array.sub a off q) in
  match observed with
  | Some (b, walk, _) when ticks <> [] ->
      {
        metrics =
          ph.metrics
          @ [ ("io.write_s", median (List.map (fun (_, _, _, w) -> w) s.warm), "s") ]
          @ plan_cache_metrics ()
          @ coverage_metrics ~attributed:ph.setup_sum ~setup:b.setup_s
          @ walk
          @ [
              ("persist.ckpt_bytes", newest_ckpt_bytes (store_dir "b"), "B");
              ("persist.dir_bytes", float_of_int s.dir_bytes, "B");
              ("epoch.cold_s", s.cold_s, "s");
              ("epoch.tick_p50_s", median ticks, "s");
              ("epoch.drift", median (slice (Array.length a - q)) /. median (slice 0), "ratio");
            ]
          @ ingest_metrics s.acks_us ~bytes_per_event:s.bytes_per_event;
        input = base;
        digest = s.last_digest;
        energy = b.result.Workflow.stats.Mcmc.final_energy;
        samples =
          (let size f = List.map (fun t -> float_of_int (f t)) s.sizes in
           [
             ("tick_s", ticks);
             ("ack_us", s.acks_us);
             ("events_journal_bytes", size (fun (e, _, _) -> e));
             ("epoch_journal_bytes", size (fun (_, e, _) -> e));
             ("dir_bytes", size (fun (_, _, d) -> d));
           ]);
      }
  | _ -> { metrics = []; input = base; digest = s.last_digest; energy = nan; samples = [] }

(* ---- Entry point ------------------------------------------------------ *)

let query_name = function
  | Workflow.Tbi -> "tbi"
  | Workflow.Jdd -> "jdd"
  | Workflow.Sbi -> "sbi"
  | Workflow.Tbd b -> Printf.sprintf "tbd:%d" b

let config_json = function
  | Synth c ->
      Obj
        [
          ("query", String (query_name c.query));
          ("epsilon", Float c.epsilon);
          ("pow", Float c.pow);
          ("jobs", Int 1);
          ("steps", Int c.steps);
          ("trace_every", Int c.trace_every);
          ("checkpoint_every", Int c.ckpt_every);
          ("audit_every", Int c.audit_every);
        ]
  | Stream s ->
      Obj
        [
          ("query", String "tbi");
          ("per_epoch_epsilon", Float s.per_epoch);
          ("pow", Float s.s_pow);
          ("jobs", Int 1);
          ("steps", Int s.s_steps);
          ("checkpoint_every", Int s.s_ckpt_every);
          ("audit_every", Int s.s_audit_every);
          ("nodes", Int s.nodes);
          ("warm_epochs_per_session", Int s.warm_epochs);
          ("churn_per_epoch", Int s.churn);
          ("fsync", Bool true);
        ]

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work = ref "" and tiny = ref false and source = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME grqc-tbi | epinions-jdd | stream-churn");
      ("--seed", Arg.Set_int seed, "N input and chain seed");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--work", Arg.Set_string work, "DIR scratch directory (recreated)");
      ("--tiny", Arg.Set tiny, " tiny inputs (self-test)");
      ("--source-id", Arg.Set_string source, "ID revision of the code under test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR";
  let w = workload ~tiny:!tiny !name in
  fresh_dir !work;
  let o =
    match (w, !trace) with
    | Synth c, 0 -> synth_e2e c ~work:!work ~seed:!seed ~seconds:!seconds
    | Synth c, _ -> synth_traced c ~work:!work ~seed:!seed
    | Stream s, 0 -> stream_e2e s ~work:!work ~seed:!seed ~seconds:!seconds
    | Stream s, _ -> stream_traced s ~work:!work ~seed:!seed
  in
  let g = o.input in
  let find n = List.find_map (fun (k, v, _) -> if k = n then Some v else None) o.metrics in
  let notes =
    (match find "setup.coverage" with
    | Some c when c < 0.9 ->
        [
          Printf.sprintf "setup coverage %.3f < 0.9; the unattributed setup is %s" c
            (match w with
            | Synth _ ->
                "the Fit.Pool replica engine Fit.run builds before the first step (jobs = 1 \
                 still builds one beside the owner fit) and the checkpoint store open"
            | Stream _ ->
                "the step-0 snapshot write and rebase inside Workflow.fit_stream, and the \
                 Fit.Pool replica build");
        ]
    | _ -> [])
    @
    match find "trace.overhead" with
    | Some r -> [ Printf.sprintf "tracing overhead: traced / untraced walk steps/s = %.4f" r ]
    | None -> []
  in
  let out =
    Obj
      [
        ("workload", String !name);
        ("seed", Int !seed);
        ("trace", Int !trace);
        ("tiny", Bool !tiny);
        ( "host",
          Obj
            [
              ("nproc", Int (Domain.recommended_domain_count ()));
              ("ocaml", String Sys.ocaml_version);
              ("source", String !source);
            ] );
        ( "input",
          Obj
            [
              ("n", Int (Graph.n g));
              ("m", Int (Graph.m g));
              ("sum_deg_sq", Int (Graph.sum_deg_sq g));
            ] );
        ("config", config_json w);
        ("release_md5", String o.digest);
        ("final_energy_bits", String (bits o.energy));
        ("attempted", Int !attempted);
        ("failed", Int !failed);
        ("problems", List (List.rev_map (fun p -> String p) !problems));
        ("notes", List (List.map (fun n -> String n) notes));
        ( "metrics",
          Obj
            (List.map
               (fun (n, v, u) -> (n, Obj [ ("value", Float v); ("unit", String u) ]))
               o.metrics) );
        ( "samples",
          Obj (List.map (fun (k, l) -> (k, List (List.map (fun v -> Float v) l))) o.samples) );
        ("spans", if !trace = 0 then List [] else spans_json ());
      ]
  in
  print_endline (to_string out)
