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

let input ?init engine =
  let i = Dataflow.Input.create ?init engine in
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
  module Grid = Dataflow.Grid
  module Room = Wpinq_weighted.Room
  module Wide = Grid.Wide

  (* The distance is maintained over a growing "tracked" set: the records
     the measurement materialized at measurement time (its support), plus
     any record that has appeared in the synthetic output.  Any other
     record entering the tracked set shifts the distance by the constant
     [-|m x|] relative to the mathematical ‖Q(A) − m‖₁ over that record;
     constants cancel in energy differences, which is all MCMC consumes.

     Each record's term [|w − m x|] is rounded to the grid and the terms
     are summed exactly, so a record back at weight zero adds exactly
     nothing and the distance is a pure function of the sink's contents
     and the measurement's memoized values — whatever the walk, the
     aborts, or the order records arrived in.  The baseline is the support
     alone, so every target over one measurement agrees bit for bit
     however late it is built (a resume, a compaction or audit rebuild). *)
  type t = {
    epsilon : float;
    distance : Wide.t;
    recompute : unit -> unit;
  }

  let create (type a) (q : a collection) (m : a Measurement.t) =
    let sink = Dataflow.Sink.attach q in
    let engine = Dataflow.Sink.engine sink in
    (* Tracked state is indexed by the sink's interned record ids: [obs]
       holds the drawn observation, [status] distinguishes untracked (0),
       baseline (1: observed at measurement time, whose |0 - m x| is part
       of the initial distance), lazily-drawn (2) and first seen in the
       delivery being retired (3) records. *)
    let support = List.map (fun (x, v) -> (Dataflow.Sink.intern_id sink x, v)) (Measurement.support m) in
    (* Sized, with [Room]'s room, for the ids a build shows: the sink's
       records, then the support's. *)
    let n = List.fold_left (fun n (id, _) -> max n (id + 1)) (Dataflow.Sink.support_size sink) support in
    let obs = ref (Array.make (Room.cap n) 0.0) in
    let status = ref (Bytes.make (Room.cap n) '\000') in
    let ensure id =
      obs := Room.grow !obs (id + 1) 0.0;
      status := Room.grow_bytes !status (id + 1)
    in
    let term w v = Grid.of_float (Float.abs (Grid.to_float w -. v)) in
    let distance = Wide.create () in
    List.iter
      (fun (id, v) ->
        ensure id;
        !obs.(id) <- v;
        Bytes.set !status id '\001';
        Wide.add distance (term 0 v))
      support;
    (* A first-seen record draws its observation under the undo log: an
       abort removes it from the tracked set and rewinds the measurement's
       private noise cursor, so the tracked set and the noise stream are
       pure functions of the committed walk prefix.  (A replica engine
       evaluating a discarded lookahead speculation therefore leaves no
       trace, which is what keeps K replicas bit-identical to each other
       and to the serial walk.) *)
    let draw id =
      let x = Dataflow.Sink.record_of_id sink id in
      (if Dataflow.Engine.speculating engine then
         let mk = Measurement.mark m in
         Dataflow.Engine.log_undo engine (fun () ->
             Bytes.set !status id '\000';
             Measurement.undo_draw m x mk));
      !obs.(id) <- Measurement.value m x;
      Bytes.set !status id '\002'
    in
    let by_record a b =
      compare (Dataflow.Sink.record_of_id sink a) (Dataflow.Sink.record_of_id sink b)
    in
    (* Which records a delivery carries is history-free, but their order
       is not (operator state keeps swap-last member order).  So a
       delivery's first-seen records draw in ascending record order, and a
       resumed or rebuilt engine assigns every record the noise the live
       one did. *)
    let first_seen = ref [] in
    let retire ids olds news len =
      for i = 0 to len - 1 do
        let id = ids.(i) in
        ensure id;
        if Bytes.get !status id = '\000' then begin
          Bytes.set !status id '\003';
          first_seen := id :: !first_seen
        end
      done;
      if !first_seen <> [] then begin
        let fresh = List.sort by_record !first_seen in
        first_seen := [];
        List.iter draw fresh
      end;
      (* Enroll the maintained distance in the speculative rollback: the
         undo log restores the pre-delivery value directly. *)
      if Dataflow.Engine.speculating engine then
        Dataflow.Engine.log_undo engine (Wide.restorer distance);
      for i = 0 to len - 1 do
        let v = !obs.(ids.(i)) in
        Wide.add distance (Grid.sub (term news.(i) v) (term olds.(i) v))
      done
    in
    Dataflow.Sink.on_delivery sink retire;
    (* Over a bulk-built pipeline the sink starts holding its output: one
       delivery from empty, so its records draw as one batch would. *)
    Dataflow.Sink.deliver_current sink retire;
    let from_scratch () =
      let d = Wide.create () in
      let st = !status in
      for id = 0 to Bytes.length st - 1 do
        match Bytes.get st id with
        | '\000' -> ()
        | s ->
            let v = !obs.(id) in
            Wide.add d (term (Dataflow.Sink.weight_id sink id) v);
            if s = '\002' then Wide.add d (-term 0 v)
      done;
      d
    in
    {
      epsilon = Measurement.epsilon m;
      distance;
      recompute = (fun () -> Wide.assign distance (from_scratch ()));
    }

  let of_plan ctx p m = create (Plans.lower ctx p) m
  let distance t = Wide.to_float t.distance
  let exact_distance t = Wide.copy t.distance
  let weighted_distance t = t.epsilon *. distance t
  let epsilon t = t.epsilon
  let recompute t = t.recompute ()
  let inject_drift t dw = Wide.add t.distance (Grid.of_float dw)
  let energy targets = List.fold_left (fun acc t -> acc +. weighted_distance t) 0.0 targets
end
