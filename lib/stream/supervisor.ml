module Journal = Wpinq_persist.Journal
module Persist = Wpinq_persist.Persist
module Codec = Persist.Codec
module Budget = Wpinq_core.Budget
module Batch = Wpinq_core.Batch
module Prng = Wpinq_prng.Prng
module Graph = Wpinq_graph.Graph
module Workflow = Wpinq_infer.Workflow
module Shutdown = Wpinq_infer.Shutdown
module Ledger = Wpinq_service.Ledger

let magic = "WPQEPO1\x00"
let snapshot_magic = "wPINQEPO"
let snapshot_version = 2

exception Chaos of string

type config = {
  queries : Workflow.query list;
  steps : int;
  pow : float;
  jobs : int;
  trace_every : int option;
  audit_every : int;
  checkpoint_every : int;
  keep : int;
  fsync : bool;
  retries : int;
  backoff : float;
  deadline : float;
  per_epoch : float;
  epochs : int;
  policy : Policy.degrade;
  seed : int;
}

let config ?(queries = [ Workflow.Tbi ]) ?(steps = 2000) ?(pow = 100.0) ?(jobs = 1)
    ?trace_every ?(audit_every = 0) ?(checkpoint_every = 500) ?(keep = 3) ?(fsync = true) ?(retries = 2) ?(backoff = 0.0)
    ?(deadline = 0.0) ?(policy = Policy.Roll_forward) ?(seed = 1) ~per_epoch ~epochs () =
  if queries = [] then invalid_arg "Supervisor.config: queries must be non-empty";
  if not (Float.is_finite per_epoch && per_epoch >= 0.0) then
    invalid_arg "Supervisor.config: per-epoch epsilon must be finite and non-negative";
  if epochs < 0 then invalid_arg "Supervisor.config: negative epoch count";
  {
    queries;
    steps;
    pow;
    jobs;
    trace_every;
    audit_every;
    checkpoint_every;
    keep;
    fsync;
    retries;
    backoff;
    deadline;
    per_epoch;
    epochs;
    policy;
    seed;
  }

type books = {
  granted : float;
  spent : float;
  carried : float;
  forfeited : float;
  outstanding : float;
}

type completed = {
  epoch : int;
  allowance : float;
  spent : float;
  steps : int;
  initial_energy : float;
  final_energy : float;
  events : int;
  stream_seq : int;
  retries : int;
}

type merged = {
  m_epoch : int;
  m_allowance : float;
  m_spent : float;
  rolled : float;
  forfeited : float;
  reason : string;
  deferred : int;
  m_retries : int;
}

type refused = { r_epoch : int; r_deferred : int }
type outcome = Completed of completed | Merged of merged | Refused of refused

let outcome_to_string = function
  | Completed { epoch; spent; final_energy; events; retries; _ } ->
      Printf.sprintf "epoch %d completed: spent %.4g, energy %.4g, %d events%s" epoch
        spent final_energy events
        (if retries > 0 then Printf.sprintf " (%d retries)" retries else "")
  | Merged { m_epoch; m_spent; rolled; forfeited; reason; deferred; _ } ->
      Printf.sprintf
        "epoch %d merged (%s): spent %.4g, rolled %.4g, forfeited %.4g, %d deferred"
        m_epoch reason m_spent rolled forfeited deferred
  | Refused { r_epoch; r_deferred } ->
      Printf.sprintf "epoch %d refused: every epoch granted, %d pending" r_epoch
        r_deferred

type recovery = {
  torn_bytes : int;
  replayed_events : int;
  replayed_records : int;
  resumed_epoch : int option;
  rejected : Persist.Store.rejected list;
}

type t = {
  cfg : config;
  dir : string;
  ingest : Ingest.t;
  epochs_j : Journal.t;
  ledger : Ledger.t;
  edges : (int * int, unit) Hashtbl.t;  (* the live secret, [u < v] *)
  chaos : (epoch:int -> attempt:int -> string option) option;
  mutable jseq : int;
  mutable next_epoch : int;
  mutable consumed_seq : int;  (* stream position committed by completed epochs *)
  mutable fed_seq : int;  (* events already applied to [edges] (>= consumed) *)
  mutable committed : (int * int) list;  (* secret edges at consumed_seq *)
  mutable synthetic : Graph.t option;
  mutable outcomes : outcome list;  (* newest first *)
  mutable in_flight : (int * float * int) option;  (* epoch, allowance, head *)
  mutable escrow : int option;  (* the in-flight epoch's open measurement escrow *)
  mutable recent : (int * string) list;  (* (jseq, payload), newest first *)
}

(* ---- Codecs ----------------------------------------------------------- *)

let encode_graph buf g =
  Codec.write_int buf (Graph.n g);
  Codec.write_list
    (fun buf (u, v) ->
      Codec.write_int buf u;
      Codec.write_int buf v)
    buf (Graph.edges g)

let read_edge r =
  let u = Codec.read_int r in
  let v = Codec.read_int r in
  (u, v)

let decode_graph r =
  let n = Codec.read_int r in
  let edges = Codec.read_list read_edge r in
  Graph.of_edges ~n edges

let encode_outcome buf = function
  | Completed
      {
        epoch;
        allowance;
        spent;
        steps;
        initial_energy;
        final_energy;
        events;
        stream_seq;
        retries;
      } ->
      Codec.write_int buf 0;
      Codec.write_int buf epoch;
      Codec.write_float buf allowance;
      Codec.write_float buf spent;
      Codec.write_int buf steps;
      Codec.write_float buf initial_energy;
      Codec.write_float buf final_energy;
      Codec.write_int buf events;
      Codec.write_int buf stream_seq;
      Codec.write_int buf retries
  | Merged { m_epoch; m_allowance; m_spent; rolled; forfeited; reason; deferred; m_retries }
    ->
      Codec.write_int buf 1;
      Codec.write_int buf m_epoch;
      Codec.write_float buf m_allowance;
      Codec.write_float buf m_spent;
      Codec.write_float buf rolled;
      Codec.write_float buf forfeited;
      Codec.write_string buf reason;
      Codec.write_int buf deferred;
      Codec.write_int buf m_retries
  | Refused { r_epoch; r_deferred } ->
      Codec.write_int buf 2;
      Codec.write_int buf r_epoch;
      Codec.write_int buf r_deferred

let decode_outcome r =
  match Codec.read_int r with
  | 0 ->
      let epoch = Codec.read_int r in
      let allowance = Codec.read_float r in
      let spent = Codec.read_float r in
      let steps = Codec.read_int r in
      let initial_energy = Codec.read_float r in
      let final_energy = Codec.read_float r in
      let events = Codec.read_int r in
      let stream_seq = Codec.read_int r in
      let retries = Codec.read_int r in
      Completed
        {
          epoch;
          allowance;
          spent;
          steps;
          initial_energy;
          final_energy;
          events;
          stream_seq;
          retries;
        }
  | 1 ->
      let m_epoch = Codec.read_int r in
      let m_allowance = Codec.read_float r in
      let m_spent = Codec.read_float r in
      let rolled = Codec.read_float r in
      let forfeited = Codec.read_float r in
      let reason = Codec.read_string r in
      let deferred = Codec.read_int r in
      let m_retries = Codec.read_int r in
      Merged { m_epoch; m_allowance; m_spent; rolled; forfeited; reason; deferred; m_retries }
  | 2 ->
      let r_epoch = Codec.read_int r in
      let r_deferred = Codec.read_int r in
      Refused { r_epoch; r_deferred }
  | tag -> raise (Codec.Decode_error (Printf.sprintf "supervisor: outcome tag %d" tag))

(* Epoch-journal records.  Every record leads with its jseq so replay and
   retention can order them without knowing the variant. *)
type record =
  | Rec_start of { epoch : int; allowance : float; head : int }
  | Rec_outcome of { outcome : outcome; synthetic : Graph.t option }

let encode_record ~jseq record =
  let buf = Buffer.create 128 in
  Codec.write_int buf jseq;
  (match record with
  | Rec_start { epoch; allowance; head } ->
      Codec.write_int buf 0;
      Codec.write_int buf epoch;
      Codec.write_float buf allowance;
      Codec.write_int buf head
  | Rec_outcome { outcome; synthetic } ->
      Codec.write_int buf 1;
      encode_outcome buf outcome;
      (match synthetic with
      | None -> Codec.write_bool buf false
      | Some g ->
          Codec.write_bool buf true;
          encode_graph buf g));
  Buffer.contents buf

let decode_record payload =
  let r = Codec.reader payload in
  let jseq = Codec.read_int r in
  let record =
    match Codec.read_int r with
    | 0 ->
        let epoch = Codec.read_int r in
        let allowance = Codec.read_float r in
        let head = Codec.read_int r in
        Rec_start { epoch; allowance; head }
    | 1 ->
        let outcome = decode_outcome r in
        let synthetic = if Codec.read_bool r then Some (decode_graph r) else None in
        Rec_outcome { outcome; synthetic }
    | tag -> raise (Codec.Decode_error (Printf.sprintf "supervisor: record tag %d" tag))
  in
  (jseq, record)

let record_jseq payload = Codec.read_int (Codec.reader payload)

let encode_snapshot t =
  let buf = Buffer.create 1024 in
  Codec.write_int buf t.jseq;
  Codec.write_int buf t.next_epoch;
  Codec.write_int buf t.consumed_seq;
  Codec.write_int buf t.fed_seq;
  Codec.write_list
    (fun buf (u, v) ->
      Codec.write_int buf u;
      Codec.write_int buf v)
    buf t.committed;
  (match t.synthetic with
  | None -> Codec.write_bool buf false
  | Some g ->
      Codec.write_bool buf true;
      encode_graph buf g);
  Codec.write_list (fun buf o -> encode_outcome buf o) buf (List.rev t.outcomes);
  Buffer.contents buf

(* ---- The live secret -------------------------------------------------- *)

(* The protected graph is a plain set of undirected edges.  Arrivals of
   present edges and departures of absent ones are no-ops, so
   at-least-once replay converges. *)
let apply_event edges (e : Event.t) =
  match e.op with
  | Event.Arrive -> Hashtbl.replace edges (e.u, e.v) ()
  | Event.Depart -> Hashtbl.remove edges (e.u, e.v)

(* Feed every acknowledged event up to [upto] that the live secret has not
   absorbed yet.  Merged epochs leave their events fed-but-uncommitted;
   [fed_seq] keeps them from being applied twice. *)
let feed_to t ~upto =
  if upto > t.fed_seq then begin
    List.iter
      (fun (seq, e) -> if seq <= upto then apply_event t.edges e)
      (Ingest.events_after t.ingest t.fed_seq);
    t.fed_seq <- upto
  end

let current_edges t = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) t.edges [])

(* ---- Warm start ------------------------------------------------------- *)

let warm_seed ~rng ~degrees ~previous =
  let n = Array.length degrees in
  let deg = Array.make n 0 in
  (* Keep every previous edge that fits the new per-vertex capacities. *)
  let kept =
    List.filter
      (fun (u, v) ->
        if u < n && v < n && deg.(u) < degrees.(u) && deg.(v) < degrees.(v) then begin
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1;
          true
        end
        else false)
      (Graph.edges previous)
  in
  (* Wire the residual degree stubs uniformly at random (configuration
     model on the deficit), rejecting self-loops and duplicates. *)
  let stubs = ref [] in
  for v = n - 1 downto 0 do
    for _ = 1 to degrees.(v) - deg.(v) do
      stubs := v :: !stubs
    done
  done;
  let stubs = Array.of_list !stubs in
  let len = Array.length stubs in
  for i = len - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = stubs.(i) in
    stubs.(i) <- stubs.(j);
    stubs.(j) <- tmp
  done;
  let seen = Hashtbl.create (List.length kept * 2) in
  List.iter (fun (u, v) -> Hashtbl.replace seen (u, v) ()) kept;
  let extra = ref [] in
  for i = 0 to (len / 2) - 1 do
    let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
    let u, v = if u < v then (u, v) else (v, u) in
    if u <> v && not (Hashtbl.mem seen (u, v)) then begin
      Hashtbl.add seen (u, v) ();
      extra := (u, v) :: !extra
    end
  done;
  Graph.of_edges ~n (kept @ List.rev !extra)

(* ---- Durable plumbing ------------------------------------------------- *)

let fit_dir t epoch = Filename.concat t.dir (Printf.sprintf "fit-%d" epoch)

let remove_dir_recursive path =
  if Sys.file_exists path && Sys.is_directory path then begin
    Array.iter
      (fun entry -> try Sys.remove (Filename.concat path entry) with Sys_error _ -> ())
      (Sys.readdir path);
    try Sys.rmdir path with Sys_error _ -> ()
  end

(* Drop fit checkpoints of epochs that can never resume: everything but
   the in-flight epoch's.  Run at open and after each settle, so a crash
   between settle and cleanup only leaves garbage for the next open. *)
let sweep_fit_dirs t =
  let live = match t.in_flight with Some (e, _, _) -> Some e | None -> None in
  Array.iter
    (fun entry ->
      match Scanf.sscanf_opt entry "fit-%d%!" (fun e -> e) with
      | Some e when Some e <> live -> remove_dir_recursive (Filename.concat t.dir entry)
      | _ -> ())
    (Sys.readdir t.dir)

let journal_record t record =
  t.jseq <- t.jseq + 1;
  let payload = encode_record ~jseq:t.jseq record in
  Journal.append t.epochs_j payload;
  t.recent <- (t.jseq, payload) :: t.recent

(* Snapshot the settled supervisor state and compact both journals.  Only
   called at settled boundaries (no outstanding epoch), so recovery from
   the snapshot alone is always consistent. *)
let checkpoint_state t =
  let floor = ref t.jseq in
  let retain oldest =
    floor := oldest;
    List.rev
      (List.filter_map
         (fun (jseq, payload) -> if jseq > oldest then Some payload else None)
         t.recent)
  in
  Journal.compact t.epochs_j ~seq:t.jseq ~snapshot:(encode_snapshot t) ~retain;
  t.recent <- List.filter (fun (jseq, _) -> jseq > !floor) t.recent;
  if t.consumed_seq > fst (Ingest.base t.ingest) then
    Ingest.compact t.ingest ~upto:t.consumed_seq ~edges:t.committed

(* ---- The ε books ------------------------------------------------------ *)

(* Every epoch is booked in the durable ledger under [DIR/budget]: the root
   account holds [per_epoch × epochs]; each granted epoch is a delegated
   child ["epoch-<k>"] whose allocation is its allowance, retired (its
   spend rolled up, the rest returned) when the epoch settles.  The
   supervisor's snapshot holds no ε state of its own. *)
let root = "stream"
let epoch_tenant epoch = Printf.sprintf "epoch-%d" epoch

let booked = function
  | Ok x -> x
  | Error r -> failwith ("Supervisor: budget ledger refused: " ^ Ledger.refusal_to_string r)

(* The granted epochs' accounts, oldest first. *)
let epoch_children ledger =
  List.filter_map
    (fun (name, (v : Ledger.view)) ->
      if v.v_parent = Some root then
        Option.map (fun e -> (e, v)) (Scanf.sscanf_opt name "epoch-%d%!" Fun.id)
      else None)
    (Ledger.dump ledger)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* What a settled epoch's unspent allowance becomes under the policy:
   (rolled into the next allowance, forfeited). *)
let split policy unspent =
  match policy with
  | Policy.Roll_forward -> (unspent, 0.0)
  | Policy.Forfeit -> (0.0, unspent)

let next_allowance ledger ~per_epoch ~epochs ~policy =
  let children = epoch_children ledger in
  if List.length children >= epochs then None
  else
    match List.rev children with
    | (_, (last : Ledger.view)) :: _ ->
        let rolled, _ = split policy (Float.max 0.0 (last.v_allocated -. last.v_spent)) in
        Some (per_epoch +. rolled)
    | [] -> Some per_epoch

let books_of ledger ~per_epoch ~policy =
  match Ledger.view ledger ~tenant:root with
  | None -> { granted = 0.0; spent = 0.0; carried = 0.0; forfeited = 0.0; outstanding = 0.0 }
  | Some (r : Ledger.view) ->
      let granted = per_epoch *. float_of_int (List.length (epoch_children ledger)) in
      let carried, forfeited =
        split policy (Float.max 0.0 (granted -. r.v_spent -. r.v_committed))
      in
      { granted; spent = r.v_spent; carried; forfeited; outstanding = r.v_committed }

(* ---- Epoch execution -------------------------------------------------- *)

(* Per-use ε from the epoch allowance: seed measurements cost 3 uses, each
   query its derived use count. *)
let per_use_epsilon cfg ~allowance =
  let uses =
    3.0
    +. List.fold_left (fun acc q -> acc +. Workflow.query_cost q 1.0) 0.0 cfg.queries
  in
  allowance /. uses

(* The ε [measure] debits, summed in the order it charges (three seed
   measurements, then each query), so it equals the fit's [total_epsilon]
   bit for bit. *)
let measurement_cost cfg ~allowance =
  let e = per_use_epsilon cfg ~allowance in
  List.fold_left (fun acc q -> acc +. Workflow.query_cost q e) (e +. e +. e) cfg.queries

let measure t ~rng ~allowance =
  let per_use = per_use_epsilon t.cfg ~allowance in
  let budget = Budget.create ~name:"stream-secret" allowance in
  let rows =
    Hashtbl.fold (fun (u, v) () acc -> (u, v) :: (v, u) :: acc) t.edges []
    |> List.sort compare
    |> List.map (fun e -> (e, 1.0))
  in
  let sym = Batch.source ~budget rows in
  let seed_ms = Workflow.measure_seed ~rng ~epsilon:per_use ~sym in
  let degrees = Workflow.fit_degrees seed_ms in
  let qms = Workflow.measure_queries ~rng ~epsilon:per_use ~sym t.cfg.queries in
  (budget, per_use, degrees, qms)

(* Book the in-flight epoch: its child account, then an escrow of its
   measurement cost, before any noise is drawn.  Idempotent, keyed by the
   child's name, so recovery calls it too: a child whose escrow recovery
   charged on doubt already carries the epoch's spend and gets no second
   one. *)
let open_epoch t ~epoch ~allowance =
  let tenant = epoch_tenant epoch in
  if Ledger.view t.ledger ~tenant = None then
    booked (Ledger.delegate t.ledger ~parent:root ~tenant ~allocated:allowance);
  match Ledger.view t.ledger ~tenant with
  | Some { Ledger.v_spent = 0.0; v_committed = 0.0; _ } ->
      let cost = measurement_cost t.cfg ~allowance in
      t.escrow <- Some (booked (Ledger.escrow t.ledger ~tenant ~cost ~label:"measurements"))
  | _ -> ()

(* Commit (noise was released) or release (it never left the process)
   the in-flight escrow.  [execute] calls this before the outcome is
   journalled: a kill between the two resumes the epoch with its spend
   already booked, or re-escrows it if released. *)
let settle_escrow t ~released =
  Option.iter
    (fun id -> booked (if released then Ledger.commit t.ledger id else Ledger.release t.ledger id))
    t.escrow;
  t.escrow <- None

(* ε already released by a failed epoch: noise recorded in a durable fit
   snapshot is out in the world whether or not the epoch completed, so a
   degraded epoch settles with the newest valid generation's spend.  No
   durable generation means the noise was drawn but never released — the
   measurement died with the process — and the honest figure is zero. *)
let durable_spent t epoch =
  let dirpath = fit_dir t epoch in
  if not (Sys.file_exists dirpath) then 0.0
  else
    let store = Persist.Store.open_dir ~keep:t.cfg.keep dirpath in
    let rec scan = function
      | [] -> 0.0
      | (_step, path) :: rest -> (
          match Workflow.checkpoint_epsilon path with
          | eps -> eps
          | exception Workflow.Corrupt_checkpoint _ -> scan rest)
    in
    scan (Persist.Store.generations store)

(* One attempt at the epoch's fit: resume the durable checkpoint when one
   exists, otherwise measure + warm-start from scratch.  The epoch PRNG is
   a pure function of (seed, epoch), so a from-scratch retry re-derives
   identical noise — the same release, not a second one. *)
let run_fit t ~epoch ~allowance ~head ~attempt =
  (match t.chaos with
  | Some f -> (
      match f ~epoch ~attempt with Some reason -> raise (Chaos reason) | None -> ())
  | None -> ());
  let store = Persist.Store.open_dir ~keep:t.cfg.keep (fit_dir t epoch) in
  let cfg = t.cfg in
  let deadline = if cfg.deadline > 0.0 then Some cfg.deadline else None in
  let fresh () =
    let rng = Prng.split_nth (Prng.create cfg.seed) epoch in
    let budget, per_use, degrees, qms = measure t ~rng ~allowance in
    let warm =
      match t.synthetic with
      | Some previous -> warm_seed ~rng ~degrees ~previous
      | None -> Workflow.seed_graph ~rng ~degrees
    in
    Workflow.fit_stream ~pow:cfg.pow ~steps:cfg.steps ?trace_every:cfg.trace_every
      ~audit_every:cfg.audit_every ~jobs:cfg.jobs
      ~checkpoint:{ Workflow.every = cfg.checkpoint_every; sink = Workflow.Store store }
      ~stop:Shutdown.forced ?deadline ~rng ~budget ~epsilon:per_use ~warm ~qms ~epoch
      ~stream_seq:head ()
  in
  if Persist.Store.generations store = [] then fresh ()
  else
    match
      Workflow.resume_latest ~store ~stop:Shutdown.forced ?deadline ~jobs:cfg.jobs ()
    with
    | result -> result
    | exception Workflow.Corrupt_checkpoint _ -> fresh ()

let failure_of_exn = function
  | Journal.Io_error { op; path; cause } -> Some (Policy.Io { op; path; cause })
  | Sys_error cause -> Some (Policy.Io { op = "checkpoint"; path = ""; cause })
  | Chaos reason -> Some (Policy.Chaos reason)
  | _ -> None

(* Apply one settled outcome to the in-memory state and the ledger: the
   live settle and recovery's replay both come through here.  Retiring
   the epoch's child is keyed by its name, so replaying an outcome whose
   child is already retired changes nothing. *)
let apply_outcome t outcome ~synthetic =
  let retire epoch =
    let tenant = epoch_tenant epoch in
    match Ledger.view t.ledger ~tenant with
    | Some { Ledger.v_retired = false; _ } -> booked (Ledger.retire t.ledger ~tenant)
    | _ -> ()
  in
  (match outcome with
  | Completed { epoch; stream_seq; _ } ->
      retire epoch;
      t.consumed_seq <- stream_seq;
      t.committed <- current_edges t;
      Option.iter (fun g -> t.synthetic <- Some g) synthetic;
      t.next_epoch <- epoch + 1
  | Merged { m_epoch; _ } ->
      retire m_epoch;
      t.next_epoch <- m_epoch + 1
  | Refused { r_epoch; _ } -> t.next_epoch <- r_epoch + 1);
  t.in_flight <- None;
  t.outcomes <- outcome :: t.outcomes

let settle t outcome ~synthetic =
  journal_record t (Rec_outcome { outcome; synthetic });
  apply_outcome t outcome ~synthetic;
  checkpoint_state t;
  sweep_fit_dirs t;
  outcome

let execute t ~epoch ~allowance ~head =
  let cfg = t.cfg in
  let merged ~retries failure =
    (* With no open escrow, recovery charged it on doubt: that is the
       epoch's spend. *)
    let spent =
      if Option.is_some t.escrow then durable_spent t epoch
      else Option.value ~default:0.0 (Ledger.spent t.ledger ~tenant:(epoch_tenant epoch))
    in
    settle_escrow t ~released:(spent > 0.0);
    let rolled, forfeited = split cfg.policy (Float.max 0.0 (allowance -. spent)) in
    Merged
      {
        m_epoch = epoch;
        m_allowance = allowance;
        m_spent = spent;
        rolled;
        forfeited;
        reason = Policy.describe failure;
        deferred = head - t.consumed_seq;
        m_retries = retries;
      }
  in
  let rec attempt k =
    match run_fit t ~epoch ~allowance ~head ~attempt:k with
    | result -> Ok (result, k)
    | exception exn -> (
        match failure_of_exn exn with
        | Some f when Policy.transient f && k < cfg.retries ->
            if cfg.backoff > 0.0 then Unix.sleepf (cfg.backoff *. (2.0 ** float_of_int k));
            attempt (k + 1)
        | Some f -> Error (f, k)
        | None -> raise exn)
  in
  match attempt 0 with
  | Error (failure, retries) -> Some (settle t (merged ~retries failure) ~synthetic:None)
  | Ok (result, retries) ->
      if result.Workflow.stats.Wpinq_infer.Mcmc.interrupted then
        if Shutdown.requested () then None
          (* graceful stop: the fit wrote its final snapshot; the epoch
             stays in flight for a later tick or process to resume *)
        else Some (settle t (merged ~retries Policy.Deadline) ~synthetic:None)
      else begin
        settle_escrow t ~released:true;
        let initial_energy =
          match result.Workflow.trace with
          | first :: _ -> first.Workflow.energy
          | [] -> result.Workflow.stats.Wpinq_infer.Mcmc.initial_energy
        in
        let outcome =
          Completed
            {
              epoch;
              allowance;
              spent = result.Workflow.total_epsilon;
              steps = cfg.steps;
              initial_energy;
              final_energy = result.Workflow.stats.Wpinq_infer.Mcmc.final_energy;
              events = head - t.consumed_seq;
              stream_seq = head;
              retries;
            }
        in
        Some (settle t outcome ~synthetic:(Some result.Workflow.synthetic))
      end

(* ---- Public API ------------------------------------------------------- *)

let submit t e = Ingest.append t.ingest e
let pending t = Ingest.head t.ingest - t.consumed_seq

let tick t =
  match t.in_flight with
  | Some (epoch, allowance, head) -> execute t ~epoch ~allowance ~head
  | None -> (
      let epoch = t.next_epoch in
      let cfg = t.cfg in
      match
        next_allowance t.ledger ~per_epoch:cfg.per_epoch ~epochs:cfg.epochs ~policy:cfg.policy
      with
      | None ->
          let outcome = Refused { r_epoch = epoch; r_deferred = pending t } in
          Some (settle t outcome ~synthetic:None)
      | Some allowance ->
          let head = Ingest.head t.ingest in
          journal_record t (Rec_start { epoch; allowance; head });
          feed_to t ~upto:head;
          t.in_flight <- Some (epoch, allowance, head);
          open_epoch t ~epoch ~allowance;
          execute t ~epoch ~allowance ~head)

let run ?(cadence = 0.0) t ~epochs =
  let results = ref [] in
  (try
     for i = 1 to epochs do
       if Shutdown.requested () then raise Exit;
       (match tick t with
       | Some outcome -> results := outcome :: !results
       | None -> raise Exit);
       if cadence > 0.0 && i < epochs then Unix.sleepf cadence
     done
   with Exit -> ());
  List.rev !results

let outcomes t = List.rev t.outcomes
let synthetic t = t.synthetic
let books t = books_of t.ledger ~per_epoch:t.cfg.per_epoch ~policy:t.cfg.policy

let overspend t =
  List.fold_left (fun acc (_, excess) -> acc +. excess) 0.0 (Ledger.overspend t.ledger)

let consumed t = t.consumed_seq
let head t = Ingest.head t.ingest
let protected_edges t = current_edges t
let dir t = t.dir

let close t =
  Ingest.close t.ingest;
  Journal.close t.epochs_j;
  Ledger.close t.ledger

(* ---- Open / recovery -------------------------------------------------- *)

let decode_snapshot payload =
  let r = Codec.reader payload in
  let jseq = Codec.read_int r in
  let next_epoch = Codec.read_int r in
  let consumed_seq = Codec.read_int r in
  let fed_seq = Codec.read_int r in
  let committed = Codec.read_list read_edge r in
  let synthetic = if Codec.read_bool r then Some (decode_graph r) else None in
  (* oldest first, as written; the caller flips to the internal
     newest-first order *)
  let outcomes = Codec.read_list decode_outcome r in
  (jseq, next_epoch, consumed_seq, fed_seq, committed, synthetic, outcomes)

let open_dir ?chaos ~config:cfg dirname =
  let ingest, ingest_rec =
    Ingest.open_dir ~keep:cfg.keep ~fsync:cfg.fsync (Filename.concat dirname "events")
  in
  (* The ledger directory is created before the epoch journal's, so an
     epoch journal without one predates the ledger (or lost its books). *)
  let budget_dir = Filename.concat dirname "budget" in
  if Sys.file_exists (Filename.concat dirname "epochs") && not (Sys.file_exists budget_dir) then
    invalid_arg
      ("Supervisor.open_dir: " ^ dirname ^ " has an epoch journal but no budget ledger");
  let ledger, ledger_rec = Ledger.open_dir ~keep:cfg.keep ~fsync:cfg.fsync budget_dir in
  let allocated = cfg.per_epoch *. float_of_int cfg.epochs in
  (match Ledger.allocated ledger ~tenant:root with
  | None -> booked (Ledger.create_root ledger ~tenant:root ~allocated)
  | Some a when a = allocated -> ()
  | Some a ->
      invalid_arg
        (Printf.sprintf
           "Supervisor.open_dir: the budget ledger grants the stream %g, the config %g" a
           allocated));
  let epochs_j, epochs_rec =
    Journal.open_dir ~keep:cfg.keep ~fsync:cfg.fsync ~sites:"epoch" ~magic
      ~snapshot_magic ~snapshot_version
      (Filename.concat dirname "epochs")
  in
  let jseq0, next_epoch, consumed_seq, fed_seq, committed, synthetic, outcomes =
    match epochs_rec.Journal.snapshot with
    | Some (payload, _) -> decode_snapshot payload
    | None -> (0, 0, 0, 0, [], None, [])
  in
  let t =
    {
      cfg;
      dir = dirname;
      ingest;
      epochs_j;
      ledger;
      edges = Hashtbl.create (2 * List.length committed);
      chaos;
      jseq = jseq0;
      next_epoch;
      consumed_seq;
      fed_seq = consumed_seq;
      committed;
      synthetic;
      outcomes = List.rev outcomes;
      in_flight = None;
      escrow = None;
      recent = [];
    }
  in
  (* Rebuild the live secret: the committed edge set, then the events a
     merged or in-flight epoch had already fed when the snapshot was
     written. *)
  List.iter (fun e -> Hashtbl.replace t.edges e ()) committed;
  feed_to t ~upto:fed_seq;
  (* Replay epoch-journal records past the snapshot; keep every surviving
     record (including pre-snapshot ones retained for older generations)
     for the next compaction's retain closure. *)
  t.recent <- List.rev_map (fun payload -> (record_jseq payload, payload)) epochs_rec.records;
  let replayed = ref 0 in
  List.iter
    (fun payload ->
      let jseq, record = decode_record payload in
      if jseq > jseq0 then begin
        incr replayed;
        t.jseq <- max t.jseq jseq;
        match record with
        | Rec_start { epoch; allowance; head } ->
            feed_to t ~upto:head;
            t.in_flight <- Some (epoch, allowance, head)
        | Rec_outcome { outcome; synthetic } -> apply_outcome t outcome ~synthetic
      end)
    epochs_rec.records;
  (* Bring the ledger into line with the journal: an epoch in flight is
     booked (child and escrow) whatever the kill left undone. *)
  Option.iter (fun (epoch, allowance, _) -> open_epoch t ~epoch ~allowance) t.in_flight;
  sweep_fit_dirs t;
  let recovery =
    {
      torn_bytes =
        ingest_rec.Ingest.torn_bytes + ledger_rec.Ledger.torn_bytes
        + epochs_rec.Journal.torn_bytes;
      replayed_events = List.length ingest_rec.Ingest.replayed;
      replayed_records = !replayed;
      resumed_epoch = (match t.in_flight with Some (e, _, _) -> Some e | None -> None);
      rejected = ingest_rec.Ingest.rejected @ epochs_rec.Journal.rejected;
    }
  in
  (t, recovery)
