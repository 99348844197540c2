module Wdata = Wpinq_weighted.Wdata
module Prng = Wpinq_prng.Prng

(* The released values live in two tables: the measurement-time support
   (immutable after [create], shared by every copy) and the lazily-drawn
   records (private per copy).  [support] keeps the measurement-time
   records in canonical sorted order, so every scorer built over this
   measurement — whenever it is built, and however many lazy draws
   happened before — seeds the same baseline in the same order.  The
   lazy draws are read out in sorted-record order ({!drawn_sorted}), so a
   live measurement and one loaded from its snapshot serialize to the same
   bytes whatever their tables' insertion history. *)
type 'a t = {
  epsilon : float;
  rng : Prng.t; (* private stream for lazily-drawn records *)
  support : ('a * float) array;
  index : ('a, float) Hashtbl.t; (* [support], for lookup *)
  drawn : ('a, float) Hashtbl.t;
}

let of_support ~epsilon ~rng support drawn =
  let index = Hashtbl.create (max 16 (Array.length support)) in
  Array.iter (fun (x, v) -> Hashtbl.replace index x v) support;
  { epsilon; rng; support; index; drawn }

let create ~rng ~epsilon ~true_data =
  if not (Float.is_finite epsilon) || epsilon <= 0.0 then
    invalid_arg "Measurement.create: epsilon must be finite and positive";
  let rng = Prng.split rng in
  (* Noise is assigned in canonical (sorted-record) order, not hashtable
     order: together with Wdata's exact grid sums this makes the released
     values — noise draws included — a function of the true multiset
     alone, so a measurement taken through an optimizer-rewritten plan is
     bit-identical to one taken through the original. *)
  let support =
    Array.of_list
      (List.map
         (fun (x, w) -> (x, w +. Prng.laplace rng ~scale:(1.0 /. epsilon)))
         (Wdata.to_sorted_list true_data))
  in
  of_support ~epsilon ~rng support (Hashtbl.create 16)

let epsilon t = t.epsilon

(* An independent deep copy: same released values, same private noise
   cursor.  A replica fit built over copies draws bit-identical lazy
   observations to the original as long as both replay the same record
   sequence — the invariant the parallel lookahead pool maintains.  The
   support is immutable, so only the lazy half is copied. *)
let copy t = { t with rng = Prng.copy t.rng; drawn = Hashtbl.copy t.drawn }

(* Speculative-draw rollback support.  [mark] snapshots the private noise
   cursor; [undo_draw] drops one lazily-cached observation and rewinds the
   cursor to the snapshot, so re-encountering any record after an abort
   re-draws the identical noise.  This keeps the measurement state a pure
   function of the *committed* walk prefix, which is what lets K replica
   engines evaluate disjoint speculations and still agree bit-for-bit.
   Undo entries replay newest first, so the cursor still sits at the mark
   exactly when the [value] call being undone drew nothing — the record was
   already memoized (first seen by a scorer built after its draw), and its
   observation must survive the abort. *)
type mark = int64

let mark t = Prng.mark t.rng

let undo_draw t x m =
  if Prng.mark t.rng <> m then begin
    Hashtbl.remove t.drawn x;
    Prng.rewind t.rng m
  end

let value t x =
  match Hashtbl.find_opt t.index x with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt t.drawn x with
      | Some v -> v
      | None ->
          let v = Prng.laplace t.rng ~scale:(1.0 /. t.epsilon) in
          Hashtbl.replace t.drawn x v;
          v)

let support t = Array.to_list t.support

let drawn_sorted t =
  List.sort
    (fun (x, _) (y, _) -> compare x y)
    (Hashtbl.fold (fun x v acc -> (x, v) :: acc) t.drawn [])

let observed t = Array.fold_right (fun xv acc -> xv :: acc) t.support (drawn_sorted t)
let observed_size t = Array.length t.support + Hashtbl.length t.drawn

module Codec = Wpinq_persist.Persist.Codec

(* Only released values cross this boundary: the noisy counts, the noise
   parameter, and the private noise stream's cursor (so lazily-drawn
   records keep drawing the same sequence after a resume).  The support
   and the lazy draws (in sorted-record order) are written apart, so a
   restored measurement seeds the same baseline as the original.  The
   protected [true_data] was consumed by [create] and is not part of the
   state. *)
let save write_key t buf =
  let write_entry buf (x, v) =
    write_key buf x;
    Codec.write_float buf v
  in
  Codec.write_float buf t.epsilon;
  Codec.write_string buf (Prng.save t.rng);
  Codec.write_array write_entry buf t.support;
  Codec.write_list write_entry buf (drawn_sorted t)

let load read_key r =
  let read_entry r =
    let x = read_key r in
    let v = Codec.read_float r in
    (x, v)
  in
  let epsilon = Codec.read_float r in
  let rng = Prng.restore (Codec.read_string r) in
  let support = Codec.read_array read_entry r in
  let drawn = Codec.read_list read_entry r in
  if not (Float.is_finite epsilon) || epsilon <= 0.0 then
    raise (Codec.Decode_error "Measurement.load: epsilon must be finite and positive");
  let table = Hashtbl.create (max 16 (List.length drawn)) in
  List.iter (fun (x, v) -> Hashtbl.replace table x v) drawn;
  of_support ~epsilon ~rng support table
