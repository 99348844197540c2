module Dataflow = Wpinq_dataflow.Dataflow

type 'a t = 'a Dataflow.node
type 'a collection = 'a t
type 'a handle = 'a Dataflow.Input.t

let select = Dataflow.select
let where = Dataflow.where
let select_many = Dataflow.select_many
let select_many_list = Dataflow.select_many_list
let concat = Dataflow.concat
let except = Dataflow.except
let union = Dataflow.union
let intersect = Dataflow.intersect
let join = Dataflow.join
let group_by = Dataflow.group_by
let distinct = Dataflow.distinct
let shave = Dataflow.shave
let shave_const = Dataflow.shave_const

let input engine =
  let i = Dataflow.Input.create engine in
  (i, Dataflow.Input.node i)

let feed = Dataflow.Input.feed
let current = Dataflow.Input.current
let node n = n

module Plans = struct
  module L = Plan.Lower (struct
    type nonrec 'a t = 'a t

    let select = select
    let where = where
    let select_many = select_many
    let select_many_list = select_many_list
    let concat = concat
    let except = except
    let union = union
    let intersect = intersect
    let join = join
    let group_by = group_by
    let distinct = distinct
    let shave = shave
    let shave_const = shave_const
  end)

  type ctx = { lctx : L.ctx; engine : Dataflow.Engine.t; mutable reported : int }

  let create engine = { lctx = L.create (); engine; reported = 0 }
  let bind ctx p v = L.bind ctx.lctx p v

  (* Memo hits inside the shared lowering context are physical dataflow
     nodes *not* rebuilt; credit them to the engine's [nodes_shared]
     counter incrementally so interleaved lowerings stay accurate. *)
  let lower ctx p =
    let v = L.lower ctx.lctx p in
    let shared = L.nodes_shared ctx.lctx in
    Dataflow.Engine.add_shared_nodes ctx.engine (shared - ctx.reported);
    ctx.reported <- shared;
    v

  let nodes_built ctx = L.nodes_built ctx.lctx
  let nodes_shared ctx = L.nodes_shared ctx.lctx
end

module Target = struct
  (* The distance is maintained over a growing "tracked" set: the records
     the measurement materialized at measurement time (its support), plus
     any record that has ever appeared in the synthetic output.  Any other
     record entering the tracked set shifts the distance by the constant
     [-|m x|] relative to the mathematical ‖Q(A) − m‖₁ over that record;
     constants cancel in energy differences, which is all MCMC consumes.
     [recompute] re-derives the same convention from scratch.

     The baseline is the support alone — never the records some walk has
     drawn lazily since — and it is seeded in the support's canonical
     order.  So every target over one measurement follows the same
     convention however late it is built (a replica, a checkpoint rebase,
     an audit's batch replica): two targets whose sinks agree read the same
     distance, up to rounding from their different update histories. *)
  type t = {
    epsilon : float;
    distance : unit -> float;
    recompute : unit -> unit;
    inject : float -> unit;
  }

  let create (type a) (q : a collection) (m : a Measurement.t) =
    let sink = Dataflow.Sink.attach q in
    let engine = Dataflow.Sink.engine sink in
    (* Tracked state is indexed by the sink's interned record ids —
       struct-of-arrays instead of a record-keyed hashtable: [obs] holds
       the drawn observation, [status] distinguishes untracked (0),
       baseline (1: observed at measurement time, whose |0 - m x| is part
       of the initial distance) and lazily-drawn (2) records.  Intern ids
       are monotone and never recycled, so direct indexing needs no
       hashing and leaves no abort residue to iterate over. *)
    let obs = ref [||] in
    let status = ref Bytes.empty in
    let ensure id =
      let cap = Bytes.length !status in
      if id >= cap then begin
        let cap' = max 64 (max (2 * cap) (id + 1)) in
        let o = Array.make cap' 0.0 and s = Bytes.make cap' '\000' in
        Array.blit !obs 0 o 0 cap;
        Bytes.blit !status 0 s 0 cap;
        obs := o;
        status := s
      end
    in
    (* [from_scratch] must not iterate the sink's state directly: its
       entry order keeps residue from aborted speculations, which would
       make the recomputed distance's rounding order depend on abort
       history.  The dense [order] array records
       committed first-seen order of ids instead; the speculative undo
       pops it exactly. *)
    let order = ref ([||] : int array) in
    let tracked_n = ref 0 in
    let note id =
      let n = !tracked_n in
      let cap = Array.length !order in
      if n = cap then begin
        let arr = Array.make (if cap = 0 then 64 else 2 * cap) 0 in
        Array.blit !order 0 arr 0 n;
        order := arr
      end;
      !order.(n) <- id;
      tracked_n := n + 1
    in
    let distance = ref 0.0 in
    List.iter
      (fun (x, v) ->
        let id = Dataflow.Sink.intern_id sink x in
        ensure id;
        !obs.(id) <- v;
        Bytes.set !status id '\001';
        note id;
        distance := !distance +. Float.abs v)
      (Measurement.support m);
    Dataflow.Sink.on_change_id sink (fun id x ~old_weight ~new_weight ->
        ensure id;
        let obs_x =
          if Bytes.get !status id <> '\000' then !obs.(id)
          else begin
            (* A record first seen during a speculative propagation draws
               its observation under the undo log: an abort removes it
               from the tracked set and rewinds the measurement's private
               noise cursor, so the tracked set and the noise stream are
               pure functions of the committed walk prefix.  (A replica
               engine evaluating a discarded lookahead speculation
               therefore leaves no trace, which is what keeps K replicas
               bit-identical to each other and to the serial walk.) *)
            (if Dataflow.Engine.speculating engine then
               let mk = Measurement.mark m in
               Dataflow.Engine.log_undo engine (fun () ->
                   Bytes.set !status id '\000';
                   decr tracked_n;
                   Measurement.undo_draw m x mk));
            let v = Measurement.value m x in
            !obs.(id) <- v;
            Bytes.set !status id '\002';
            note id;
            v
          end
        in
        (* Enroll the maintained distance in the speculative rollback: the
           undo log restores the pre-speculation value directly instead of
           reversing the arithmetic, so an abort is bit-exact. *)
        (if Dataflow.Engine.speculating engine then
           let d0 = !distance in
           Dataflow.Engine.log_undo engine (fun () -> distance := d0));
        distance := !distance +. Float.abs (new_weight -. obs_x) -. Float.abs (old_weight -. obs_x));
    let from_scratch () =
      let d = ref 0.0 in
      for i = 0 to !tracked_n - 1 do
        let id = !order.(i) in
        let v = !obs.(id) in
        let q = Dataflow.Sink.weight_id sink id in
        d := !d +. Float.abs (q -. v);
        if Bytes.get !status id = '\002' then d := !d -. Float.abs v
      done;
      !d
    in
    let recompute () = distance := from_scratch () in
    (* Enroll the maintained distance in the engine's self-audit: the hook
       re-derives it from the sink without mutating anything, so a clean
       audit leaves the walk bit-identical. *)
    let op = Dataflow.Engine.fresh_op_id engine in
    Dataflow.Engine.register_audit engine (fun ~tolerance ->
        let cell = Printf.sprintf "target#%d.distance" op in
        match
          Dataflow.Audit.check ~tolerance ~cell ~maintained:!distance ~recomputed:(from_scratch ())
        with
        | None -> (1, [])
        | Some d -> (1, [ d ]));
    {
      epsilon = Measurement.epsilon m;
      distance = (fun () -> !distance);
      recompute;
      inject = (fun dw -> distance := !distance +. dw);
    }

  let of_plan ctx p m = create (Plans.lower ctx p) m
  let distance t = t.distance ()
  let weighted_distance t = t.epsilon *. t.distance ()
  let epsilon t = t.epsilon
  let recompute t = t.recompute ()
  let inject_drift t dw = t.inject dw
  let energy targets = List.fold_left (fun acc t -> acc +. weighted_distance t) 0.0 targets
end
