module Wdata = Wpinq_weighted.Wdata
module Ops = Wpinq_weighted.Ops

(* Every weight the engine keeps is a [Grid] int, so each cell holds the
   exact sum of its current contributions whatever history of feeds,
   commits and aborts produced it (DESIGN.md, "Exact accumulation on a
   grid"). *)
module Grid = Wpinq_weighted.Grid
module Intern = Wpinq_weighted.Intern
module Room = Wpinq_weighted.Room

module Audit = struct
  type divergence = {
    cell : string;
    maintained : float;
    recomputed : float;
    abs_drift : float;
    ulp_drift : int64;
  }

  type report = { cells_checked : int; divergences : divergence list }

  (* Map a float's IEEE-754 bits to a lexicographically ordered int64, so
     that the distance between two ordered values counts the representable
     floats between them. *)
  let ordered_bits f =
    let bits = Int64.bits_of_float f in
    if Int64.compare bits 0L < 0 then Int64.sub Int64.min_int bits else bits

  let ulp_distance a b =
    let oa = ordered_bits a and ob = ordered_bits b in
    let hi, lo = if Int64.compare oa ob >= 0 then (oa, ob) else (ob, oa) in
    let d = Int64.sub hi lo in
    if Int64.compare d 0L < 0 then Int64.max_int else d

  let divergence ~cell ~maintained ~recomputed =
    {
      cell;
      maintained;
      recomputed;
      abs_drift = Float.abs (maintained -. recomputed);
      ulp_drift = ulp_distance maintained recomputed;
    }

  let divergence_to_string d =
    Printf.sprintf "%s: maintained %h vs recomputed %h (abs drift %g, ulp drift %Ld)" d.cell
      d.maintained d.recomputed d.abs_drift d.ulp_drift
end

module Engine = struct
  (* The undo log is a stack of restoration closures recorded by every
     stateful cell mutation made while [speculating].  Closures (rather
     than typed cell records) keep the log polymorphic over the
     heterogeneous cell types of the DAG's operators; each closure
     reinstates one cell's exact previous contents, so replaying the log
     in reverse is a bit-identical rollback with no float arithmetic. *)
  let nop () = ()

  type intern_stats = { ids : int; slots : int; displacement : int; pair_cache : int }

  (* A stateful cell's digest, named only when it diverges; [tamper] is
     a join side's test hook ([corrupt_join]). *)
  type cell = { name : unit -> string; digest : unit -> int; tamper : unit -> bool }

  type intern = Intern : 'a Intern.t -> intern

  type t = {
    mutable state_records : int;
    mutable work : int;
    mutable join_fast : int;
    mutable join_full : int;
    (* DAG shape and traffic: physical operator nodes built, plan-lowering
       memo hits reported by [add_shared_nodes], and record deliveries
       (delta length x subscriber count) counted at every [emit] *)
    mutable nodes_built : int;
    mutable nodes_shared : int;
    mutable records_propagated : int;
    (* scratch-arena allocation counters *)
    mutable arena_grows : int;
    mutable arena_reuses : int;
    (* speculation protocol *)
    mutable speculating : bool;
    mutable in_feed : bool;
    mutable undo : (unit -> unit) array;
    mutable undo_len : int;
    mutable commits : int;
    mutable aborts : int;
    mutable undo_cells : int;
    (* [state_records] at [begin_speculation], restored by [abort]: it
       counts state, which the abort restores; the traffic counters keep
       what the rejected propagation did *)
    mutable s_state_records : int;
    mutable cells_rev : cell list; (* every stateful cell, newest first *)
    (* clears the datasets bulk-built nodes hold for their consumers *)
    mutable holding : (unit -> unit) list;
    (* interns and join pair-cache sizes, registered when built *)
    mutable interns : intern list;
    mutable pair_caches : (unit -> int) list;
    mutable next_op_id : int;
  }

  let create () =
    {
      state_records = 0;
      work = 0;
      join_fast = 0;
      join_full = 0;
      nodes_built = 0;
      nodes_shared = 0;
      records_propagated = 0;
      arena_grows = 0;
      arena_reuses = 0;
      speculating = false;
      in_feed = false;
      undo = Array.make 64 nop;
      undo_len = 0;
      commits = 0;
      aborts = 0;
      undo_cells = 0;
      s_state_records = 0;
      cells_rev = [];
      holding = [];
      interns = [];
      pair_caches = [];
      next_op_id = 0;
    }

  let state_records t = t.state_records
  let work t = t.work
  let join_fast_updates t = t.join_fast
  let join_full_rescales t = t.join_full
  let arena_grows t = t.arena_grows
  let arena_reuses t = t.arena_reuses
  let nodes_built t = t.nodes_built
  let nodes_shared t = t.nodes_shared
  let records_propagated t = t.records_propagated
  (* Interns are monotone, so this only grows. *)
  let interned_ids t = List.fold_left (fun n (Intern i) -> n + Intern.size i) 0 t.interns

  let add_shared_nodes t n =
    if n < 0 then invalid_arg "Dataflow.Engine.add_shared_nodes: negative count";
    t.nodes_shared <- t.nodes_shared + n

  (* The traffic and speculation counters keep counting across a reset;
     everything that describes the dropped DAG starts over. *)
  let reset t =
    if t.speculating || t.in_feed then
      invalid_arg "Dataflow.Engine.reset: engine is speculating or propagating";
    t.state_records <- 0;
    t.nodes_built <- 0;
    t.nodes_shared <- 0;
    t.cells_rev <- [];
    t.holding <- [];
    t.interns <- [];
    t.pair_caches <- [];
    t.next_op_id <- 0;
    t.undo <- Array.make 64 nop

  (* A bulk build ends leaving every intern the room its growth would
     have: the ids the walk adds copy nothing until they have doubled it. *)
  let end_build t =
    if t.holding <> [] then begin
      List.iter (fun clear -> clear ()) t.holding;
      t.holding <- [];
      List.iter (fun (Intern i) -> Intern.reserve i) t.interns
    end

  let commits t = t.commits
  let aborts t = t.aborts
  let undo_cells t = t.undo_cells
  let speculating t = t.speculating

  let fresh_op_id t =
    let id = t.next_op_id in
    t.next_op_id <- id + 1;
    id

  let register_cell ?(tamper = fun () -> false) ?(part = "") t ~kind ~op digest =
    let name () = Printf.sprintf "%s#%d%s" kind op part in
    t.cells_rev <- { name; digest; tamper } :: t.cells_rev

  let register_pair_cache t size = t.pair_caches <- size :: t.pair_caches

  let intern_stats t =
    let add a (Intern i) =
      { a with ids = a.ids + Intern.size i; slots = a.slots + Intern.capacity i;
        displacement = a.displacement + Intern.displacement i }
    in
    let s = List.fold_left add { ids = 0; slots = 0; displacement = 0; pair_cache = 0 } t.interns in
    { s with pair_cache = List.fold_left (fun n size -> n + size ()) 0 t.pair_caches }

  let digests t =
    if t.speculating then invalid_arg "Dataflow.Engine.digests: cannot digest mid-speculation";
    Array.of_list (List.rev_map (fun c -> c.digest ()) t.cells_rev)

  let digest_cell t i = (List.nth t.cells_rev (List.length t.cells_rev - 1 - i)).name ()

  let corrupt_join t =
    List.find_map (fun c -> if c.tamper () then Some (c.name ()) else None) (List.rev t.cells_rev)

  let log_undo t f =
    if t.speculating then begin
      t.undo <- Room.grow t.undo (t.undo_len + 1) nop;
      t.undo.(t.undo_len) <- f;
      t.undo_len <- t.undo_len + 1;
      t.undo_cells <- t.undo_cells + 1
    end

  let begin_speculation t =
    if t.speculating then
      invalid_arg "Dataflow.Engine.begin_speculation: speculation already in progress";
    if t.in_feed then
      invalid_arg "Dataflow.Engine.begin_speculation: cannot speculate during propagation";
    end_build t;
    t.s_state_records <- t.state_records;
    t.speculating <- true

  let commit t =
    if not t.speculating then invalid_arg "Dataflow.Engine.commit: no speculation in progress";
    if t.in_feed then invalid_arg "Dataflow.Engine.commit: cannot commit during propagation";
    t.speculating <- false;
    Array.fill t.undo 0 t.undo_len nop;
    t.undo_len <- 0;
    t.commits <- t.commits + 1

  let abort t =
    if not t.speculating then invalid_arg "Dataflow.Engine.abort: no speculation in progress";
    if t.in_feed then invalid_arg "Dataflow.Engine.abort: cannot abort during propagation";
    t.speculating <- false;
    for i = t.undo_len - 1 downto 0 do
      t.undo.(i) ();
      t.undo.(i) <- nop
    done;
    t.undo_len <- 0;
    t.state_records <- t.s_state_records;
    t.aborts <- t.aborts + 1
end

(* Record interning ([Intern]): each distinct record value an operator
   sees is mapped to a dense [int] id at first sight, and everything
   downstream of the mapping — weight tables, membership arrays, the undo
   log's slot captures — works on ids.  The table is a monotone cache of a
   pure function (record -> id), so it is deliberately *not* enrolled in
   the undo log: an id assigned during an aborted speculation stays
   assigned, which is unobservable because no emission or iteration order
   anywhere follows id order (state tables iterate in committed insertion
   order, GroupBy parts in canonical order by weight and record, and
   measurement emissions sort canonically).  Keeping
   interning monotone is what lets every other structure be plain int
   arrays.  An intern built here counts towards the engine's
   [interned_ids] and [intern_stats]. *)
let register engine (t : 'a Intern.t) =
  let known (Engine.Intern i) = Obj.repr i == Obj.repr t in
  if not (List.exists known engine.Engine.interns) then
    engine.Engine.interns <- Engine.Intern t :: engine.Engine.interns;
  t

let tracked engine = register engine (Intern.create ())

(* A bulk-built dataset's index, adopted as the intern of the operator that
   keeps its records (several operators may share it: an intern is a pure
   record -> id map), or a fresh intern.  It is registered once. *)
let intern_for engine = function Some w -> register engine (Wdata.keys w) | None -> tracked engine

(* A weight table over dense interned ids: the struct-of-arrays successor
   of the old record-keyed [Wtbl].  [pos] is a direct-index array (id ->
   dense slot), so lookups touch no hash function at all; entries live in
   [ids]/[ws] in committed insertion order.  Weights are grid ints, so a
   value never depends on that order.  Under speculation each mutation
   logs its exact structural inverse; removal swaps the last entry down,
   and the undo replays in reverse order so captured slot indices stay
   valid.  Backing-array growth needs no undo: contents beyond [len] (or
   [pos] cells holding -1) are invisible.  Arrays grow by [Room]'s rule,
   and [fill] sizes them by it, so the ids and entries a walk adds after a
   bulk build copy nothing until they have doubled the table. *)
module Itbl = struct
  type t = {
    engine : Engine.t;
    mutable pos : int array; (* id -> dense slot, -1 when absent *)
    mutable ids : int array;
    mutable ws : int array;
    mutable len : int;
  }

  let create engine = { engine; pos = [||]; ids = [||]; ws = [||]; len = 0 }
  let size t = t.len

  let mem t id =
    if id < 0 then invalid_arg "Dataflow.Itbl: negative id";
    id < Array.length t.pos && t.pos.(id) >= 0

  let get t id =
    if id < 0 then invalid_arg "Dataflow.Itbl: negative id";
    if id < Array.length t.pos then
      let p = t.pos.(id) in
      if p >= 0 then t.ws.(p) else 0
    else 0

  (* Room for ids below [n] and for the entries held, as [fill] leaves. *)
  let reserve t n =
    t.pos <- Room.reserve t.pos n (-1);
    t.ids <- Room.reserve t.ids t.len 0;
    t.ws <- Room.reserve t.ws t.len 0

  let set t id w =
    if id < 0 then invalid_arg "Dataflow.Itbl: negative id";
    let engine = t.engine in
    if id >= Array.length t.pos then t.pos <- Room.grow t.pos (id + 1) (-1);
    let p = t.pos.(id) in
    if p < 0 then begin
      if w <> 0 then begin
        let i = t.len in
        if i = Array.length t.ids then (t.ids <- Room.grow t.ids (i + 1) 0; t.ws <- Room.grow t.ws (i + 1) 0);
        t.ids.(i) <- id;
        t.ws.(i) <- w;
        t.len <- i + 1;
        t.pos.(id) <- i;
        engine.Engine.state_records <- engine.Engine.state_records + 1;
        if engine.Engine.speculating then
          Engine.log_undo engine (fun () ->
              t.pos.(id) <- -1;
              t.len <- i)
      end
    end
    else if w = 0 then begin
      (* Remove by swapping the last entry into the vacated slot; the
         logged inverse puts both entries back in their exact slots. *)
      let last = t.len - 1 in
      let w0 = t.ws.(p) in
      let idl = t.ids.(last) and wl = t.ws.(last) in
      if p <> last then begin
        t.ids.(p) <- idl;
        t.ws.(p) <- wl;
        t.pos.(idl) <- p
      end;
      t.len <- last;
      t.pos.(id) <- -1;
      engine.Engine.state_records <- engine.Engine.state_records - 1;
      if engine.Engine.speculating then
        Engine.log_undo engine (fun () ->
            t.len <- last + 1;
            if p <> last then begin
              t.ids.(last) <- idl;
              t.ws.(last) <- wl;
              t.pos.(idl) <- last
            end;
            t.ids.(p) <- id;
            t.ws.(p) <- w0;
            t.pos.(id) <- p)
    end
    else begin
      let w0 = t.ws.(p) in
      t.ws.(p) <- w;
      if engine.Engine.speculating then Engine.log_undo engine (fun () -> t.ws.(p) <- w0)
    end

  (* Adds [dw] and returns the old weight. *)
  let bump t id dw =
    let old = get t id in
    set t id (Grid.add old dw);
    old

  (* Fills an empty table from a dataset over the table's intern: id [i]
     holds the dataset's [i]-th weight. *)
  let fill t w =
    let n = Wdata.support_size w in
    t.len <- n;
    reserve t n;
    let i = ref 0 in
    Wdata.iter_grid (fun _ wt -> t.pos.(!i) <- !i; t.ids.(!i) <- !i; t.ws.(!i) <- wt; incr i) w;
    t.engine.Engine.state_records <- t.engine.Engine.state_records + n

  let to_list t =
    let rec go i acc = if i < 0 then acc else go (i - 1) ((t.ids.(i), t.ws.(i)) :: acc) in
    go (t.len - 1) []

  let to_wdata t intern =
    Wdata.build t.len (fun emit ->
        for i = 0 to t.len - 1 do
          emit (Intern.value intern t.ids.(i)) t.ws.(i)
        done)
end

(* A table holding a bulk-built dataset's weights, or an empty one. *)
let table_of engine contents =
  let t = Itbl.create engine in
  Option.iter (Itbl.fill t) contents;
  t

(* Registers the digest cell of a weight table over [intern]'s ids: the
   sum of [Intern.digest], walked over the table's dense entries. *)
let table_cell ?tamper ?part engine ~kind ~op intern (tbl : Itbl.t) =
  Engine.register_cell ?tamper ?part engine ~kind ~op (fun () ->
      let ids = tbl.Itbl.ids and ws = tbl.Itbl.ws in
      let d = ref 0 in
      for i = 0 to tbl.Itbl.len - 1 do
        d := !d + Intern.term (Intern.hash_of intern ids.(i)) ws.(i)
      done;
      !d)

type 'a delta = ('a * float) list

(* Internally deltas travel as borrowed parallel-array slices
   ([xs]/[ws]/[len], weights on the grid) instead of [('a * float) list]:
   no pair or list-cell allocation per propagated record.  A subscriber
   must fully retire the slice before returning and must not mutate it
   (several subscribers may receive the same arrays); both hold because
   propagation is a synchronous walk of an acyclic DAG.  The list type
   survives only at the public [Input.feed]/[coalesce] boundary. *)
type 'a node = {
  engine : Engine.t;
  mutable subs_rev : ('a array -> int array -> int -> unit) list;
  mutable subs : ('a array -> int array -> int -> unit) array;
  (* A bulk-built node's output, held for its consumers until the build
     ends ([Engine.end_build]). *)
  mutable contents : 'a Wdata.t option;
}

let engine_of n = n.engine

(* A node built over nodes holding datasets evaluates its own with the
   batch kernels ([Ops]) and builds its state from them (a bulk build);
   the engine drops the datasets when the build ends. *)
let make ?contents engine =
  engine.Engine.nodes_built <- engine.Engine.nodes_built + 1;
  let n = { engine; subs_rev = []; subs = [||]; contents } in
  if Option.is_some contents then
    engine.Engine.holding <- (fun () -> n.contents <- None) :: engine.Engine.holding;
  n

(* A binary operator's inputs' datasets, when either holds one: a node
   holding none is empty until the build ends. *)
let contents2 a b =
  let get = function Some w -> w | None -> Wdata.empty () in
  match (a.contents, b.contents) with None, None -> None | ca, cb -> Some (get ca, get cb)

(* Subscribers fire in subscription order; propagation is a synchronous
   depth-first walk of the DAG.  Correctness does not depend on the order
   because every stateful operator retires each delta batch against its
   current state.  Subscription happens only at DAG-build time, so the
   subscriber array is rebuilt eagerly and emission iterates a flat
   array. *)
let subscribe n f =
  n.subs_rev <- f :: n.subs_rev;
  n.subs <- Array.of_list (List.rev n.subs_rev)

let emit n xs ws len =
  if len > 0 then begin
    let nsubs = Array.length n.subs in
    n.engine.Engine.records_propagated <- n.engine.Engine.records_propagated + (len * nsubs);
    for i = 0 to nsubs - 1 do
      n.subs.(i) xs ws len
    done
  end

(* [Wdata]'s accumulation: each entry is rounded to the grid before
   netting, so the net is exact.  Its first-emission order fixes
   first-sight order downstream (DESIGN.md, "Record interning"). *)
let coalesce_grid d = Wdata.to_grid_list (Wdata.of_list d)
let coalesce d = List.map (fun (x, g) -> (x, Grid.to_float g)) (coalesce_grid d)
let count_work (engine : Engine.t) len = engine.work <- engine.work + len

(* A bulk build's output weights by scratch id, summed exactly. *)
let bulk_add acc oid w =
  acc := Room.grow !acc (oid + 1) 0;
  !acc.(oid) <- Grid.add !acc.(oid) w

(* Reusable per-operator output accumulator — the scratch arena.  Output
   changes accumulate by *output intern id* in a direct-index int array
   ([acc], membership in [inacc], first-touch order in [touched]);
   [flush] walks the touched ids once, drops entries that net to exactly
   zero, converts ids back to values and emits one parallel-array slice.
   Safe to reuse across a DAG propagation because every handler fully
   drains its scratch before emitting downstream, and the DAG is acyclic,
   so a handler can never be re-entered while its scratch is live. *)
module Scratch = struct
  type 'a t = {
    engine : Engine.t;
    intern : 'a Intern.t;
    mutable acc : int array; (* out-id -> accumulated weight this batch *)
    mutable inacc : Bytes.t; (* out-id -> '\001' while in [touched] *)
    mutable touched : int array; (* out-ids in first-touch order *)
    mutable tlen : int;
    mutable out_xs : 'a array;
    mutable out_ws : int array;
  }

  (* Room for every id of the intern, which a bulk build has filled. *)
  let reserve t =
    let n = Intern.size t.intern in
    t.acc <- Room.reserve t.acc n 0;
    t.inacc <- Room.reserve_bytes t.inacc n

  let create engine intern =
    let t = { engine; intern; acc = [||]; inacc = Bytes.empty; touched = [||]; tlen = 0; out_xs = [||]; out_ws = [||] } in
    reserve t;
    t

  let ensure_id t id =
    if id >= Array.length t.acc then begin
      t.engine.Engine.arena_grows <- t.engine.Engine.arena_grows + 1;
      t.acc <- Room.grow t.acc (id + 1) 0;
      t.inacc <- Room.grow_bytes t.inacc (id + 1)
    end

  let push_id t id w =
    ensure_id t id;
    if Bytes.get t.inacc id <> '\000' then t.acc.(id) <- Grid.add t.acc.(id) w
    else begin
      Bytes.set t.inacc id '\001';
      t.acc.(id) <- w;
      if t.tlen = Array.length t.touched then begin
        t.engine.Engine.arena_grows <- t.engine.Engine.arena_grows + 1;
        t.touched <- Room.grow t.touched (t.tlen + 1) 0
      end;
      t.touched.(t.tlen) <- id;
      t.tlen <- t.tlen + 1
    end

  let push t x w = push_id t (Intern.intern t.intern x) w

  (* Emits the coalesced batch in first-push order and resets for the
     next batch. *)
  let flush t out =
    let n = t.tlen in
    if n > 0 then begin
      if n > 1 then t.engine.Engine.arena_reuses <- t.engine.Engine.arena_reuses + 1;
      let k = ref 0 in
      for i = 0 to n - 1 do
        let id = t.touched.(i) in
        let w = t.acc.(id) in
        Bytes.set t.inacc id '\000';
        if w <> 0 then begin
          let j = !k in
          if j >= Array.length t.out_xs then begin
            t.engine.Engine.arena_grows <- t.engine.Engine.arena_grows + 1;
            t.out_xs <- Room.grow t.out_xs (j + 1) (Intern.value t.intern id);
            t.out_ws <- Room.grow t.out_ws (j + 1) 0
          end;
          t.out_xs.(j) <- Intern.value t.intern id;
          t.out_ws.(j) <- w;
          k := j + 1
        end
      done;
      t.tlen <- 0;
      emit out t.out_xs t.out_ws !k
    end
end

(* The dataset a bulk build's output weights make over the scratch
   intern, with the scratch sized for it. *)
let bulk_output scratch acc =
  Scratch.reserve scratch;
  Wdata.of_index scratch.Scratch.intern (Room.grow !acc (Intern.size scratch.Scratch.intern) 0)

(* Raw slice buffer for operators that neither coalesce nor re-key
   (filtering, negation, input roots): no interning, no hashing. *)
module Buf = struct
  type 'a t = {
    engine : Engine.t;
    mutable xs : 'a array;
    mutable ws : int array;
    mutable len : int;
  }

  let create engine = { engine; xs = [||]; ws = [||]; len = 0 }
  let clear b = b.len <- 0

  let push b x w =
    if b.len = Array.length b.xs then begin
      b.engine.Engine.arena_grows <- b.engine.Engine.arena_grows + 1;
      b.xs <- Room.grow b.xs (b.len + 1) x;
      b.ws <- Room.grow b.ws (b.len + 1) 0
    end;
    b.xs.(b.len) <- x;
    b.ws.(b.len) <- w;
    b.len <- b.len + 1
end

module Input = struct
  type 'a t = { node : 'a node; intern : 'a Intern.t; state : Itbl.t; buf : 'a Buf.t }

  let create ?init engine =
    let intern = intern_for engine init and state = table_of engine init in
    table_cell engine ~kind:"input" ~op:(Engine.fresh_op_id engine) intern state;
    { node = make ?contents:init engine; intern; state; buf = Buf.create engine }

  let node t = t.node

  let feed t delta =
    let engine = t.node.engine in
    if engine.Engine.in_feed then
      invalid_arg "Dataflow.Input.feed: re-entrant feed during propagation";
    Engine.end_build engine;
    engine.Engine.in_feed <- true;
    Fun.protect
      ~finally:(fun () -> engine.Engine.in_feed <- false)
      (fun () ->
        let delta = coalesce_grid delta in
        Buf.clear t.buf;
        List.iter
          (fun (x, w) ->
            ignore (Itbl.bump t.state (Intern.intern t.intern x) w);
            Buf.push t.buf x w)
          delta;
        emit t.node t.buf.Buf.xs t.buf.Buf.ws t.buf.Buf.len)

  let current t = Itbl.to_wdata t.state t.intern
end

let select f up =
  let contents = Option.map (Ops.select f) up.contents in
  let out = make ?contents up.engine in
  let scratch = Scratch.create up.engine (intern_for up.engine contents) in
  subscribe up (fun xs ws len ->
      count_work up.engine len;
      for i = 0 to len - 1 do
        Scratch.push scratch (f xs.(i)) ws.(i)
      done;
      Scratch.flush scratch out);
  out

let where p up =
  let out = make ?contents:(Option.map (Ops.where p) up.contents) up.engine in
  let buf = Buf.create up.engine in
  subscribe up (fun xs ws len ->
      count_work up.engine len;
      Buf.clear buf;
      for i = 0 to len - 1 do
        if p xs.(i) then Buf.push buf xs.(i) ws.(i)
      done;
      emit out buf.Buf.xs buf.Buf.ws buf.Buf.len);
  out

(* The only stateless nonlinear operator: a record's contributions are
   rounded to the grid, so they are not linear in its weight.  Keeping the
   input weights lets every change emit [q(new) - q(old)] per produced
   record, both recomputed from state. *)
let select_many f up =
  let engine = up.engine in
  let contents = Option.map (Ops.select_many f) up.contents in
  let out = make ?contents engine in
  let intern = intern_for engine up.contents and state = table_of engine up.contents in
  table_cell engine ~kind:"select_many" ~op:(Engine.fresh_op_id engine) intern state;
  let scratch = Scratch.create engine (intern_for engine contents) in
  subscribe up (fun xs ws len ->
      count_work engine len;
      for i = 0 to len - 1 do
        let x = xs.(i) in
        let old = Itbl.bump state (Intern.intern intern x) ws.(i) in
        let w = old + ws.(i) and ys = f x in
        let n = Ops.produced_norm ys in
        List.iter
          (fun (y, wy) ->
            Scratch.push scratch y (Grid.sub (Grid.scale_share wy w n) (Grid.scale_share wy old n)))
          ys
      done;
      Scratch.flush scratch out);
  out

let select_many_list f up = select_many (fun x -> List.map (fun y -> (y, 1.0)) (f x)) up

let same_engine a b =
  if a.engine != b.engine then invalid_arg "Dataflow: nodes belong to different engines";
  a.engine

let concat a b =
  let engine = same_engine a b in
  let out = make ?contents:(Option.map (fun (ca, cb) -> Ops.concat ca cb) (contents2 a b)) engine in
  let pass xs ws len =
    count_work engine len;
    emit out xs ws len
  in
  subscribe a pass;
  subscribe b pass;
  out

let except a b =
  let engine = same_engine a b in
  let out = make ?contents:(Option.map (fun (ca, cb) -> Ops.except ca cb) (contents2 a b)) engine in
  subscribe a (fun xs ws len ->
      count_work engine len;
      emit out xs ws len);
  let buf = Buf.create engine in
  subscribe b (fun xs ws len ->
      count_work engine len;
      Buf.clear buf;
      for i = 0 to len - 1 do
        Buf.push buf xs.(i) (-ws.(i))
      done;
      emit out buf.Buf.xs buf.Buf.ws buf.Buf.len);
  out

(* Union and Intersect keep both sides' weights per record and emit the
   change to max/min when either side moves.  One shared intern serves
   both side tables and the output scratch, so each incoming record is
   hashed exactly once.  A bulk build adopts the left side's index and
   adds the right side's records it lacks, by their stored hashes. *)
let merge_node ~kind (fop : int -> int -> int) a b =
  let engine = same_engine a b in
  let wa = Itbl.create engine and wb = Itbl.create engine in
  let intern, contents =
    match contents2 a b with
    | None -> (tracked engine, None)
    | Some (ca, cb) ->
        let intern = register engine (Wdata.keys ca) and kb = Wdata.keys cb in
        Itbl.fill wa ca;
        let j = ref 0 in
        Wdata.iter_grid (fun x w -> Itbl.set wb (Intern.intern_hashed intern x (Intern.hash_of kb !j)) w; incr j) cb;
        Itbl.reserve wa (Intern.size intern);
        Itbl.reserve wb (Intern.size intern);
        let merged id = fop (Itbl.get wa id) (Itbl.get wb id) in
        (intern, Some (Wdata.of_index intern (Array.init (Intern.size intern) merged)))
  in
  let out = make ?contents engine in
  let op = Engine.fresh_op_id engine in
  table_cell engine ~kind ~part:".left" ~op intern wa;
  table_cell engine ~kind ~part:".right" ~op intern wb;
  let scratch = Scratch.create engine intern in
  let handle mine other flip xs ws len =
    count_work engine len;
    for i = 0 to len - 1 do
      let dw = ws.(i) in
      let id = Intern.intern intern xs.(i) in
      let old_mine = Itbl.bump mine id dw in
      let v_other = Itbl.get other id in
      let old_out = if flip then fop v_other old_mine else fop old_mine v_other in
      let new_mine = old_mine + dw in
      let new_out = if flip then fop v_other new_mine else fop new_mine v_other in
      if new_out <> old_out then Scratch.push_id scratch id (Grid.sub new_out old_out)
    done;
    Scratch.flush scratch out
  in
  subscribe a (handle wa wb false);
  subscribe b (handle wb wa true);
  out

let union a b = merge_node ~kind:"union" (fun x y -> if x >= y then x else y) a b
let intersect a b = merge_node ~kind:"intersect" (fun x y -> if x <= y then x else y) a b

(* Keyed-operator side state (Join inputs, GroupBy), fully
   struct-of-arrays.  Every record belongs to exactly one key (the key
   function is pure), so weights live in one flat [Itbl] per side and
   each key's part is an array of member record ids ([members.(kid)],
   its first [mlen.(kid)] entries): no record per key.  [key_of] caches
   the interned key per record so re-deliveries of a known record never
   hash its key again.  A Join side keeps its parts in insertion order,
   with [mpos] giving O(1) swap-last removal; a GroupBy part is kept in
   [Ops.member_order] and finds a member by binary search ([mpos] stays
   empty).
   Either way every mutation logs its exact structural inverse, the same
   abort-residue guarantee the old record-keyed tables gave.  [norm] is
   Join's Σ|w| per key.  A key first touched in an aborted speculation
   keeps its (empty) slots, which behave as an absent key.  The rid- and
   kid-indexed arrays grow by [Room]'s rule and [kside_fill] sizes them by
   it, as [Itbl]'s are. *)
type 'r kside = {
  ri : 'r Intern.t;
  w : Itbl.t;
  mutable key_of : int array; (* rid -> kid, -1 unknown *)
  mutable mpos : int array; (* rid -> slot in its part's members, -1 absent *)
  mutable members : int array array; (* kid -> member rids *)
  mutable mlen : int array; (* kid -> live members *)
  mutable norm : int array;
}

let kside_create engine ri =
  { ri; w = Itbl.create engine; key_of = [||]; mpos = [||]; members = [||]; mlen = [||]; norm = [||] }

let kside_ensure_rid side rid =
  side.key_of <- Room.grow side.key_of (rid + 1) (-1);
  side.mpos <- Room.grow side.mpos (rid + 1) (-1)

(* Makes room for key ids below [n]. *)
let kside_keys side n =
  side.members <- Room.grow side.members n [||];
  side.mlen <- Room.grow side.mlen n 0;
  side.norm <- Room.grow side.norm n 0

let part_len side kid = if kid < Array.length side.mlen then side.mlen.(kid) else 0
let part_norm side kid = if kid < Array.length side.norm then side.norm.(kid) else 0

(* Fills an empty side from a bulk-built dataset [w] over its intern,
   grouped by [Ops.index] into [p]; [kmap] maps [p]'s key ids to the
   operator's (the identity when [p]'s keys are the operator's), below
   [nkeys].  With [order], each part is sorted by it once instead of
   indexed by [mpos]. *)
let kside_fill side w (p : _ Ops.parts) ?kmap ?order ~nkeys ~norms () =
  let n = Wdata.support_size w in
  Itbl.fill side.w w;
  side.key_of <- Array.make (Room.cap n) (-1);
  Array.iteri (fun i k -> side.key_of.(i) <- (match kmap with Some m -> m.(k) | None -> k)) p.kid;
  if order = None then side.mpos <- Array.make (Room.cap n) (-1);
  kside_keys side nkeys;
  for k = 0 to Array.length p.start - 2 do
    let lo = p.start.(k) and len = p.start.(k + 1) - p.start.(k) in
    let kid = match kmap with Some m -> m.(k) | None -> k in
    let members = Array.sub p.src lo len in
    (match order with
    | Some cmp -> Array.stable_sort cmp members
    | None ->
        for j = 0 to len - 1 do
          side.mpos.(members.(j)) <- j
        done);
    side.members.(kid) <- members;
    side.mlen.(kid) <- len;
    if norms then side.norm.(kid) <- Ops.part_norm p k
  done

let member_add (engine : Engine.t) side kid rid =
  let i = side.mlen.(kid) in
  if i = Array.length side.members.(kid) then side.members.(kid) <- Room.grow side.members.(kid) (i + 1) 0;
  side.members.(kid).(i) <- rid;
  side.mlen.(kid) <- i + 1;
  side.mpos.(rid) <- i;
  if engine.Engine.speculating then
    Engine.log_undo engine (fun () ->
        side.mpos.(rid) <- -1;
        side.mlen.(kid) <- i)

let member_remove (engine : Engine.t) side kid rid =
  let members = side.members.(kid) in
  let i = side.mpos.(rid) in
  let last = side.mlen.(kid) - 1 in
  let rl = members.(last) in
  if i <> last then begin
    members.(i) <- rl;
    side.mpos.(rl) <- i
  end;
  side.mlen.(kid) <- last;
  side.mpos.(rid) <- -1;
  if engine.Engine.speculating then
    Engine.log_undo engine (fun () ->
        (* A later add may have grown the array: restore into the current one. *)
        let members = side.members.(kid) in
        side.mlen.(kid) <- last + 1;
        if i <> last then begin
          members.(last) <- rl;
          side.mpos.(rl) <- last
        end;
        members.(i) <- rid;
        side.mpos.(rid) <- i)

(* Absolute set of one record's weight within its part ([kid], whose
   slots exist), maintaining the membership array alongside the weight
   table. *)
let kside_set (engine : Engine.t) side kid rid w =
  let was = Itbl.mem side.w rid in
  Itbl.set side.w rid w;
  let now = Itbl.mem side.w rid in
  if now && not was then member_add engine side kid rid
  else if was && not now then member_remove engine side kid rid

(* GroupBy's ordered parts.  [member_cmp] is [Ops.member_order] over
   record ids, on the weights the side holds. *)
let member_cmp side a b =
  Ops.member_order (Itbl.get side.w a) (Intern.value side.ri a) (Itbl.get side.w b)
    (Intern.value side.ri b)

(* The first slot of part [kid] whose member does not sort before a
   member of weight [w] and record [x]. *)
let ordered_slot side kid w x =
  let members = side.members.(kid) in
  let lo = ref 0 and hi = ref side.mlen.(kid) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let r = members.(mid) in
    if Ops.member_order (Itbl.get side.w r) (Intern.value side.ri r) w x < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Shifts of one part's members; each is the others' inverse, and an undo
   acts on the part's current array (a later insert may have grown it). *)
let slot_insert side kid i rid =
  let len = side.mlen.(kid) in
  side.members.(kid) <- Room.grow side.members.(kid) (len + 1) 0;
  let m = side.members.(kid) in
  Array.blit m i m (i + 1) (len - i);
  m.(i) <- rid;
  side.mlen.(kid) <- len + 1

let slot_remove side kid i =
  let m = side.members.(kid) and len = side.mlen.(kid) in
  Array.blit m (i + 1) m i (len - i - 1);
  side.mlen.(kid) <- len - 1

let slot_move side kid i j =
  let m = side.members.(kid) in
  let rid = m.(i) in
  if i < j then Array.blit m (i + 1) m i (j - i) else Array.blit m j m (j + 1) (i - j);
  m.(j) <- rid

(* Absolute set of one record's weight within its ordered part ([kid],
   whose slots exist): a binary search for its old and new slots, then one
   shift, undo-logged as the inverse shift. *)
let ordered_set (engine : Engine.t) side kid rid w =
  let w0 = Itbl.get side.w rid and x = Intern.value side.ri rid in
  if w <> w0 then begin
    let i = if w0 <> 0 then ordered_slot side kid w0 x else -1 in
    let j = if w <> 0 then ordered_slot side kid w x else -1 in
    Itbl.set side.w rid w;
    let undo = engine.Engine.speculating in
    if w0 = 0 then begin
      slot_insert side kid j rid;
      if undo then Engine.log_undo engine (fun () -> slot_remove side kid j)
    end
    else if w = 0 then begin
      slot_remove side kid i;
      if undo then Engine.log_undo engine (fun () -> slot_insert side kid i rid)
    end
    else begin
      (* [j] counted the member itself when it sorts before its new slot. *)
      let j = if j > i then j - 1 else j in
      if i <> j then begin
        slot_move side kid i j;
        if undo then Engine.log_undo engine (fun () -> slot_move side kid j i)
      end
    end
  end

let part_add_norm (engine : Engine.t) side kid dn =
  if dn <> 0 then begin
    if engine.Engine.speculating then begin
      let n0 = side.norm.(kid) in
      Engine.log_undo engine (fun () -> side.norm.(kid) <- n0)
    end;
    side.norm.(kid) <- Grid.add side.norm.(kid) dn
  end

(* Per-batch grouping buffers: incoming slice entries are chained per
   interned key id in plain int arrays (no per-batch hashtable, no list
   cells).  [dacc]/[din] net per-record changes for Join; [crid]/[cdw]
   carry raw entries for GroupBy.  Shared by both handlers of one
   operator — they never overlap because propagation is synchronous. *)
type gbatch = {
  mutable dacc : int array; (* rid -> net weight change this batch *)
  mutable din : Bytes.t; (* rid -> '\001' when it has a chain node this batch *)
  mutable khead : int array; (* kid -> chain head, -1 *)
  mutable crid : int array; (* chain nodes: record id *)
  mutable cdw : int array; (* chain nodes: raw weight change (GroupBy) *)
  mutable cnext : int array;
  mutable clen : int;
  mutable keys : int array; (* kids touched, first-touch order *)
  mutable klen : int;
}

(* Sized for the record and key ids a bulk build filled ([rids] [0] for
   an operator that does not net per record). *)
let gbatch_create ~rids ~keys =
  {
    dacc = Array.make (Room.cap rids) 0;
    din = Bytes.make (Room.cap rids) '\000';
    khead = Array.make (Room.cap keys) (-1);
    crid = [||];
    cdw = [||];
    cnext = [||];
    clen = 0;
    keys = [||];
    klen = 0;
  }

let gbatch_chain gb kid rid dw =
  gb.khead <- Room.grow gb.khead (kid + 1) (-1);
  if gb.clen = Array.length gb.crid then begin
    gb.crid <- Room.grow gb.crid (gb.clen + 1) 0;
    gb.cnext <- Room.grow gb.cnext (gb.clen + 1) 0;
    gb.cdw <- Room.grow gb.cdw (gb.clen + 1) 0
  end;
  let node = gb.clen in
  gb.crid.(node) <- rid;
  gb.cdw.(node) <- dw;
  gb.cnext.(node) <- gb.khead.(kid);
  if gb.khead.(kid) < 0 then begin
    gb.keys <- Room.grow gb.keys (gb.klen + 1) 0;
    gb.keys.(gb.klen) <- kid;
    gb.klen <- gb.klen + 1
  end;
  gb.khead.(kid) <- node;
  gb.clen <- node + 1

let gbatch_reset gb =
  for i = 0 to gb.klen - 1 do
    gb.khead.(gb.keys.(i)) <- -1
  done;
  (* [din] is only grown (and set) by operators that net per record;
     chain nodes from operators that never touch it can carry rids past
     its length. *)
  let dn = Bytes.length gb.din in
  for i = 0 to gb.clen - 1 do
    let rid = gb.crid.(i) in
    if rid < dn then Bytes.set gb.din rid '\000'
  done;
  gb.klen <- 0;
  gb.clen <- 0

let join ~kl ~kr ~reduce a b =
  let engine = same_engine a b in
  let bulk = contents2 a b in
  let all _ = true in
  let parts = Option.map (fun (ca, cb) -> (Ops.index ~key:kl ~keep:all ca, Ops.index ~key:kr ~keep:all cb)) bulk in
  let sa = kside_create engine (intern_for engine (Option.map fst bulk))
  and sb = kside_create engine (intern_for engine (Option.map snd bulk)) in
  let kintern = match parts with Some (pa, _) -> register engine pa.Ops.keys | None -> tracked engine in
  (* Digest cells per side: its record weights, and its key norms. *)
  let op = Engine.fresh_op_id engine in
  let side_cells name side =
    (* Test hook: one record's weight moves one unit away from zero, and its
       key's norm with it, so the norm still sums the part. *)
    let tamper () =
      match Array.find_index (fun n -> n > 0) side.mlen with
      | Some kid ->
          let rid = side.members.(kid).(0) and one = Grid.of_float 1.0 in
          let w = Itbl.get side.w rid in
          Itbl.set side.w rid (Grid.add w (if w < 0 then -one else one));
          side.norm.(kid) <- Grid.add side.norm.(kid) one;
          true
      | None -> false
    in
    table_cell engine ~kind:"join" ~part:name ~op ~tamper side.ri side.w;
    Engine.register_cell engine ~kind:"join" ~part:(name ^ ".norm") ~op (fun () ->
        Intern.digest kintern (part_norm side))
  in
  side_cells ".left" sa;
  side_cells ".right" sb;
  let scratch = Scratch.create engine (tracked engine) in
  (* Output pairs are interned by (left rid, right rid) in an insert-only
     open-addressing pair cache, so the steady-state inner loops allocate
     no tuples and hash no records — [reduce] runs once per distinct pair
     ever matched.  Slot [i] is [pc.(2i)], the pair packed into one int
     (ids have 31 bits), [-1] when empty, beside its output id
     [pc.(2i + 1)]: one cache line per probe.  A bulk build sizes the
     cache for every pair it will hold. *)
  let pairs = match parts with Some (pa, pb) -> Ops.count_pairs pa pb | None -> 0 in
  let pcap = ref 16 in
  while 4 * pairs > 3 * !pcap do
    pcap := 2 * !pcap
  done;
  let pc = ref (Array.make (2 * !pcap) (-1)) in
  let pmask = ref (!pcap - 1) in
  let plen = ref 0 in
  Engine.register_pair_cache engine (fun () -> !plen);
  let pair_home key = ((key lsr 31) * 0x9E3779B1) lxor key in
  let pair_rehash () =
    let cap = 2 * (!pmask + 1) in
    let mask = cap - 1 in
    let pc' = Array.make (2 * cap) (-1) in
    for i = 0 to !pmask do
      let key = !pc.(2 * i) in
      if key >= 0 then begin
        let j = ref (pair_home key land mask) in
        while pc'.(2 * !j) >= 0 do
          j := (!j + 1) land mask
        done;
        pc'.(2 * !j) <- key;
        pc'.((2 * !j) + 1) <- !pc.((2 * i) + 1)
      end
    done;
    pc := pc';
    pmask := mask
  in
  let out_id_of ra rb =
    let key = (ra lsl 31) lor rb and pc0 = !pc and mask = !pmask in
    let i = ref (pair_home key land mask) in
    while pc0.(2 * !i) >= 0 && pc0.(2 * !i) <> key do
      i := (!i + 1) land mask
    done;
    if pc0.(2 * !i) = key then pc0.((2 * !i) + 1)
    else begin
      let oid =
        Intern.intern scratch.Scratch.intern (reduce (Intern.value sa.ri ra) (Intern.value sb.ri rb))
      in
      pc0.(2 * !i) <- key;
      pc0.((2 * !i) + 1) <- oid;
      incr plen;
      if 4 * !plen > 3 * (!pmask + 1) then pair_rehash ();
      oid
    end
  in
  (* A bulk build evaluates Batch's pairs, filling the pair cache, and
     gives the right side's keys ids after the left side's. *)
  let contents =
    match (bulk, parts) with
    | Some (ca, cb), Some (pa, pb) ->
        let out_ws = ref [||] in
        Ops.iter_pairs pa pb (fun i j d ->
            bulk_add out_ws (out_id_of pa.Ops.src.(i) pb.Ops.src.(j)) (Grid.mul_div pa.Ops.ws.(i) pb.Ops.ws.(j) d));
        let kb = pb.Ops.keys in
        let kmap =
          Array.init (Intern.size kb) (fun k ->
              Intern.intern_hashed kintern (Intern.value kb k) (Intern.hash_of kb k))
        in
        let nkeys = Intern.size kintern in
        kside_fill sa ca pa ~nkeys ~norms:true ();
        kside_fill sb cb pb ~kmap ~nkeys ~norms:true ();
        Some (bulk_output scratch out_ws)
    | _ -> None
  in
  let out = make ?contents engine in
  let gb = gbatch_create ~rids:(max (Intern.size sa.ri) (Intern.size sb.ri)) ~keys:(Intern.size kintern) in
  (* One pair's output weight is [Grid.mul_div wx wy d].  Every emission
     is a difference of two such contributions recomputed from state, never
     a float delta, so the output is the exact sum of the current
     contributions. *)
  (* Retire a batch arriving on one side.  [epair changed_rid other_rid w]
     orients the output pair correctly for whichever side changed.  Per
     key: net the batch per record, then take the fast path when the key's
     normalizer does not move, else rescale the key's whole output. *)
  let handle mine other epair keyf xs ws len =
    count_work engine len;
    (* Net the batch per record and chain distinct records per key. *)
    for i = 0 to len - 1 do
      let x = xs.(i) in
      let rid = Intern.intern mine.ri x in
      kside_ensure_rid mine rid;
      gb.dacc <- Room.grow gb.dacc (rid + 1) 0;
      gb.din <- Room.grow_bytes gb.din (rid + 1);
      if Bytes.get gb.din rid <> '\000' then gb.dacc.(rid) <- Grid.add gb.dacc.(rid) ws.(i)
      else begin
        Bytes.set gb.din rid '\001';
        gb.dacc.(rid) <- ws.(i);
        let kid =
          let k = mine.key_of.(rid) in
          if k >= 0 then k
          else begin
            let k = Intern.intern kintern (keyf x) in
            mine.key_of.(rid) <- k;
            k
          end
        in
        gbatch_chain gb kid rid 0
      end
    done;
    for ki = 0 to gb.klen - 1 do
      let kid = gb.keys.(ki) in
      kside_keys mine (kid + 1);
      let other_norm = part_norm other kid and other_len = part_len other kid in
      let other_members = if other_len > 0 then other.members.(kid) else [||] in
      (* Σ (|old+dw| − |old|) over the key's netted records. *)
      let norm_change = ref 0 in
      let node = ref gb.khead.(kid) in
      while !node >= 0 do
        let rid = gb.crid.(!node) in
        let dw = gb.dacc.(rid) in
        if dw <> 0 then begin
          let old = Itbl.get mine.w rid in
          norm_change := Grid.add !norm_change (abs (Grid.add old dw) - abs old)
        end;
        node := gb.cnext.(!node)
      done;
      let norm_change = !norm_change in
      let denom_old = Grid.add mine.norm.(kid) other_norm in
      if norm_change = 0 && denom_old > 0 then begin
        (* Appendix B optimization: the normalizer is unchanged, so only
           pairs involving changed records move. *)
        engine.Engine.join_fast <- engine.Engine.join_fast + 1;
        let node = ref gb.khead.(kid) in
        while !node >= 0 do
          let rid = gb.crid.(!node) in
          let dw = gb.dacc.(rid) in
          (if dw <> 0 then begin
             let old = Itbl.get mine.w rid in
             let w = Grid.add old dw in
             kside_set engine mine kid rid w;
             for mi = 0 to other_len - 1 do
               let ry = other_members.(mi) in
               let wy = Itbl.get other.w ry in
               let c = Grid.sub (Grid.mul_div w wy denom_old) (Grid.mul_div old wy denom_old) in
               if c <> 0 then epair rid ry c
             done
           end);
          node := gb.cnext.(!node)
        done
      end
      else begin
        (* The normalizer moved: every pair under this key is rescaled. *)
        engine.Engine.join_full <- engine.Engine.join_full + 1;
        let emit_all sign denom =
          if denom > 0 && other_len > 0 then begin
            let members = mine.members.(kid) in
            for xi = 0 to mine.mlen.(kid) - 1 do
              let rx = members.(xi) in
              let wx = Itbl.get mine.w rx in
              for yi = 0 to other_len - 1 do
                let ry = other_members.(yi) in
                epair rx ry (sign * Grid.mul_div wx (Itbl.get other.w ry) denom)
              done
            done
          end
        in
        emit_all (-1) denom_old;
        let node = ref gb.khead.(kid) in
        while !node >= 0 do
          let rid = gb.crid.(!node) in
          let dw = gb.dacc.(rid) in
          if dw <> 0 then kside_set engine mine kid rid (Grid.add (Itbl.get mine.w rid) dw);
          node := gb.cnext.(!node)
        done;
        part_add_norm engine mine kid norm_change;
        emit_all 1 (Grid.add mine.norm.(kid) other_norm)
      end
    done;
    gbatch_reset gb;
    Scratch.flush scratch out
  in
  subscribe a (handle sa sb (fun rm ro w -> Scratch.push_id scratch (out_id_of rm ro) w) kl);
  subscribe b (handle sb sa (fun rm ro w -> Scratch.push_id scratch (out_id_of ro rm) w) kr);
  out

let group_by ~key ~reduce up =
  let engine = up.engine in
  let parts = Option.map (Ops.index ~key ~keep:(fun _ -> true)) up.contents in
  let side = kside_create engine (intern_for engine up.contents) in
  let op = Engine.fresh_op_id engine in
  table_cell engine ~kind:"group_by" ~op side.ri side.w;
  let kintern = match parts with Some p -> register engine p.Ops.keys | None -> tracked engine in
  (* The parts' member order, which the weights alone do not show: per
     part a polynomial over its members' hashes, in order. *)
  Engine.register_cell engine ~kind:"group_by" ~part:".order" ~op (fun () ->
      Intern.digest kintern (fun kid ->
          let h = ref 0 in
          for j = 0 to part_len side kid - 1 do
            h := (!h * 0x9E3779B1) + Intern.hash_of side.ri side.members.(kid).(j)
          done;
          !h));
  let scratch = Scratch.create engine (tracked engine) in
  (* Parts are in canonical order, so a part's emissions are a function of
     its members' weights.  A part keeps its current ones ([emitted.(kid)],
     as flattened (output id, grid weight) pairs): a change retracts
     exactly those, and a part whose emissions come out the same emits
     nothing.  [derive] writes a part's emissions to [now]. *)
  let emitted = ref [||] and now = ref [||] and now_len = ref 0 in
  let push v =
    now := Room.grow !now (!now_len + 1) 0;
    !now.(!now_len) <- v;
    incr now_len
  in
  let derive kid =
    let k = Intern.value kintern kid and members = side.members.(kid) in
    now_len := 0;
    Ops.group_part ~len:side.mlen.(kid)
      ~weight:(fun j -> Itbl.get side.w members.(j))
      ~record:(fun j -> Intern.value side.ri members.(j))
      ~reduce
      (fun r w ->
        push (Intern.intern scratch.Scratch.intern (k, r));
        push w)
  in
  let same old =
    Array.length old = !now_len
    &&
    let rec go i = i < 0 || (old.(i) = !now.(i) && go (i - 1)) in
    go (!now_len - 1)
  in
  (* A bulk build orders each part once and derives its emissions, as the
     first delivery would. *)
  let contents =
    match (up.contents, parts) with
    | Some w, Some p ->
        let nkeys = Intern.size kintern in
        kside_fill side w p ~order:(member_cmp side) ~nkeys ~norms:false ();
        emitted := Array.make (Room.cap nkeys) [||];
        let out_ws = ref [||] in
        for kid = 0 to nkeys - 1 do
          derive kid;
          !emitted.(kid) <- Array.sub !now 0 !now_len;
          for i = 0 to (!now_len / 2) - 1 do
            bulk_add out_ws !now.(2 * i) !now.((2 * i) + 1)
          done
        done;
        Some (bulk_output scratch out_ws)
    | _ -> None
  in
  let out = make ?contents engine in
  let gb = gbatch_create ~rids:0 ~keys:(Intern.size kintern) in
  subscribe up (fun xs ws len ->
      count_work engine len;
      for i = 0 to len - 1 do
        let x = xs.(i) in
        let rid = Intern.intern side.ri x in
        side.key_of <- Room.grow side.key_of (rid + 1) (-1);
        let kid =
          let k = side.key_of.(rid) in
          if k >= 0 then k
          else begin
            let k = Intern.intern kintern (key x) in
            side.key_of.(rid) <- k;
            k
          end
        in
        gbatch_chain gb kid rid ws.(i)
      done;
      for ki = 0 to gb.klen - 1 do
        let kid = gb.keys.(ki) in
        kside_keys side (kid + 1);
        emitted := Room.grow !emitted (kid + 1) [||];
        let node = ref gb.khead.(kid) in
        while !node >= 0 do
          let rid = gb.crid.(!node) in
          ordered_set engine side kid rid (Grid.add (Itbl.get side.w rid) gb.cdw.(!node));
          node := gb.cnext.(!node)
        done;
        derive kid;
        let old = !emitted.(kid) in
        if not (same old) then begin
          for i = 0 to (Array.length old / 2) - 1 do
            Scratch.push_id scratch old.(2 * i) (-old.((2 * i) + 1))
          done;
          for i = 0 to (!now_len / 2) - 1 do
            Scratch.push_id scratch !now.(2 * i) !now.((2 * i) + 1)
          done;
          !emitted.(kid) <- Array.sub !now 0 !now_len;
          if engine.Engine.speculating then
            Engine.log_undo engine (fun () -> !emitted.(kid) <- old)
        end
      done;
      gbatch_reset gb;
      Scratch.flush scratch out);
  out

let distinct ?(bound = 1.0) up =
  if bound <= 0.0 then invalid_arg "Dataflow.distinct: bound must be positive";
  let engine = up.engine in
  let out = make ?contents:(Option.map (Ops.distinct ~bound) up.contents) engine in
  let intern = intern_for engine up.contents and state = table_of engine up.contents in
  table_cell engine ~kind:"distinct" ~op:(Engine.fresh_op_id engine) intern state;
  let scratch = Scratch.create engine intern in
  let cap = Ops.capper bound in
  subscribe up (fun xs ws len ->
      count_work engine len;
      for i = 0 to len - 1 do
        let dw = ws.(i) in
        let id = Intern.intern intern xs.(i) in
        let old = Itbl.bump state id dw in
        let diff = cap (old + dw) - cap old in
        if diff <> 0 then Scratch.push_id scratch id diff
      done;
      Scratch.flush scratch out);
  out

let shave f up =
  let engine = up.engine in
  let contents = Option.map (Ops.shave f) up.contents in
  let out = make ?contents engine in
  let intern = intern_for engine up.contents and state = table_of engine up.contents in
  table_cell engine ~kind:"shave" ~op:(Engine.fresh_op_id engine) intern state;
  let scratch = Scratch.create engine (intern_for engine contents) in
  let slabs sign x w =
    if w > 0 then
      List.iter
        (fun (slab, wi) -> Scratch.push scratch (x, slab) (sign * Grid.of_float wi))
        (Ops.shave_emissions (f x) (Grid.to_float w))
  in
  subscribe up (fun xs ws len ->
      count_work engine len;
      for i = 0 to len - 1 do
        let x = xs.(i) in
        let dw = ws.(i) in
        let old = Itbl.bump state (Intern.intern intern x) dw in
        slabs (-1) x old;
        slabs 1 x (old + dw)
      done;
      Scratch.flush scratch out);
  out

let shave_const w up =
  if w <= 0.0 then invalid_arg "Dataflow.shave_const: slab weight must be positive";
  shave (fun _ -> Seq.repeat w) up

module Sink = struct
  type 'a t = {
    engine : Engine.t;
    intern : 'a Intern.t;
    state : Itbl.t;
    mutable deliveries_rev : (int array -> int array -> int array -> int -> unit) list;
    mutable deliveries : (int array -> int array -> int array -> int -> unit) array;
    (* the delivery being retired: sink id, old and new grid weight *)
    mutable d_ids : int array;
    mutable d_old : int array;
    mutable d_new : int array;
  }

  let attach node =
    let e = engine_of node in
    let t =
      {
        engine = e;
        intern = intern_for e node.contents;
        state = table_of e node.contents;
        deliveries_rev = [];
        deliveries = [||];
        d_ids = [||];
        d_old = [||];
        d_new = [||];
      }
    in
    table_cell e ~kind:"sink" ~op:(Engine.fresh_op_id e) t.intern t.state;
    subscribe node (fun xs ws len ->
        let record = Array.length t.deliveries > 0 in
        if record then begin
          t.d_ids <- Room.grow t.d_ids len 0;
          t.d_old <- Room.grow t.d_old len 0;
          t.d_new <- Room.grow t.d_new len 0
        end;
        for i = 0 to len - 1 do
          let id = Intern.intern t.intern xs.(i) in
          let old = Itbl.bump t.state id ws.(i) in
          if record then begin
            t.d_ids.(i) <- id;
            t.d_old.(i) <- old;
            t.d_new.(i) <- old + ws.(i)
          end
        done;
        if record then
          for c = 0 to Array.length t.deliveries - 1 do
            t.deliveries.(c) t.d_ids t.d_old t.d_new len
          done);
    t

  let engine t = t.engine

  let weight t x =
    let id = Intern.find t.intern x in
    if id < 0 then 0.0 else Grid.to_float (Itbl.get t.state id)

  let weight_id t id = Itbl.get t.state id
  let intern_id t x = Intern.intern t.intern x
  let record_of_id t id = Intern.value t.intern id
  let support_size t = Itbl.size t.state

  let to_list t =
    List.map
      (fun (id, w) -> (Intern.value t.intern id, Grid.to_float w))
      (Itbl.to_list t.state)

  let current t = Itbl.to_wdata t.state t.intern

  let on_delivery t f =
    t.deliveries_rev <- f :: t.deliveries_rev;
    t.deliveries <- Array.of_list (List.rev t.deliveries_rev)

  let deliver_current t f =
    let n = Itbl.size t.state in
    if n > 0 then f (Array.sub t.state.Itbl.ids 0 n) (Array.make n 0) (Array.sub t.state.Itbl.ws 0 n) n

  let on_change_id t f =
    on_delivery t (fun ids olds news len ->
        for i = 0 to len - 1 do
          let id = ids.(i) in
          f id (Intern.value t.intern id) ~old_weight:(Grid.to_float olds.(i))
            ~new_weight:(Grid.to_float news.(i))
        done)

  let on_change t f =
    on_change_id t (fun _id x ~old_weight ~new_weight -> f x ~old_weight ~new_weight)
end
