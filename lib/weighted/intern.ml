(* The one open-addressing record index: records in first-sight order with
   their hashes, and slots packing each hash above its id.  Placement is
   by [Hashtbl.seeded_hash] under a fixed non-zero seed, so it stays
   decorrelated from any order a stdlib [Hashtbl] can impose on a batch
   (DESIGN.md, "Record interning"). *)
type 'a t = {
  mutable xs : 'a array; (* id -> record *)
  mutable hs : Bytes.t; (* id -> hash, in 4 bytes: a hash has 30 bits *)
  mutable len : int;
  (* [||] until the first lookup, else 0 = empty, or
     [(hash lsl id_bits) lor (id + 1)].  Linear probing; the capacity is a
     power of two kept under 3/4 full, and is read off the array so that a
     lazily built index is published by one write. *)
  mutable slots : int array;
}

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1
let seed = 0x5EED_1D5
let hash x = Hashtbl.seeded_hash seed x
let[@inline] get_hash hs id = Int32.to_int (Bytes.get_int32_ne hs (4 * id))
let[@inline] set_hash hs id h = Bytes.set_int32_ne hs (4 * id) (Int32.of_int h)

(* An empty index with room for [n] records. *)
let slots_for n =
  let cap = ref 16 in
  while 4 * n > 3 * !cap do
    cap := 2 * !cap
  done;
  Array.make !cap 0

let create ?(size = 0) () =
  { xs = [||]; hs = Bytes.create (4 * max 16 size); len = 0; slots = slots_for size }

let size t = t.len
let value t id = t.xs.(id)
let hash_of t id = get_hash t.hs id

let gather parts =
  let count acc (t, keep) =
    let c = ref acc in
    for id = 0 to t.len - 1 do
      if keep id then incr c
    done;
    !c
  in
  let n = List.fold_left count 0 parts in
  match List.find_opt (fun (t, _) -> t.len > 0) parts with
  | Some (t0, _) when n > 0 ->
      let xs = Array.make n t0.xs.(0) and hs = Bytes.create (4 * n) and j = ref 0 in
      List.iter
        (fun (t, keep) ->
          for id = 0 to t.len - 1 do
            if keep id then begin
              xs.(!j) <- t.xs.(id);
              Bytes.blit t.hs (4 * id) hs (4 * !j) 4;
              incr j
            end
          done)
        parts;
      { xs; hs; len = n; slots = [||] }
  | _ -> create ()

let[@inline] place slots mask s =
  let i = ref ((s lsr id_bits) land mask) in
  while slots.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- s

(* Moves the packed slots to a table twice the size: no record is hashed
   again, and the placement is the one the ids' order of arrival gave. *)
let rehash t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  Array.iter (fun s -> if s <> 0 then place slots mask s) t.slots;
  t.slots <- slots

(* The index of a table built without one, from the stored hashes. *)
let index t =
  let slots = slots_for t.len in
  let mask = Array.length slots - 1 in
  for id = 0 to t.len - 1 do
    place slots mask ((get_hash t.hs id lsl id_bits) lor (id + 1))
  done;
  t.slots <- slots

(* The slot holding [x] (whose hash is [h]), or the empty slot where it
   belongs.  Records are equal when [compare] says so, as in a stdlib
   [Hashtbl]: every nan is one record, and [-0.] is [0.]. *)
let probe t x h =
  if Array.length t.slots = 0 then index t;
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  let s = ref slots.(!i) in
  while !s <> 0 && (!s lsr id_bits <> h || compare t.xs.((!s land id_mask) - 1) x <> 0) do
    i := (!i + 1) land mask;
    s := slots.(!i)
  done;
  !i

let find_hashed t x h =
  let i = probe t x h in
  (t.slots.(i) land id_mask) - 1

let find t x = find_hashed t x (hash x)

let intern_hashed t x h =
  let i = probe t x h in
  let s = t.slots.(i) in
  if s <> 0 then (s land id_mask) - 1
  else begin
    let id = t.len in
    if id = id_mask then failwith (Printf.sprintf "Intern: more than %d distinct records" id_mask);
    (* [xs] needs a record to fill with, so [create] sizes [hs] alone and
       the first record sizes [xs] to match. *)
    if id = Array.length t.xs then
      t.xs <- (if id = 0 then Array.make (Bytes.length t.hs / 4) x else Room.grow t.xs (id + 1) x);
    t.hs <- Room.grow_bytes ~width:4 t.hs (id + 1);
    t.xs.(id) <- x;
    set_hash t.hs id h;
    t.len <- id + 1;
    t.slots.(i) <- (h lsl id_bits) lor (id + 1);
    if 4 * t.len > 3 * Array.length t.slots then rehash t;
    id
  end

let intern t x = intern_hashed t x (hash x)

let reserve t =
  if t.len > 0 then t.xs <- Room.reserve t.xs t.len t.xs.(0);
  t.hs <- Room.reserve_bytes ~width:4 t.hs t.len

let capacity t = Array.length t.slots

let displacement t =
  let mask = Array.length t.slots - 1 and d = ref 0 in
  Array.iteri (fun i s -> if s <> 0 then d := !d + ((i - (s lsr id_bits)) land mask)) t.slots;
  !d

(* Σ (2h + 1) × w, wrapping: an odd multiplier lets no single change
   cancel. *)
let[@inline] term h w = ((h lsl 1) lor 1) * w

let digest t weight =
  let d = ref 0 in
  for id = 0 to t.len - 1 do
    d := !d + term (get_hash t.hs id) (weight id)
  done;
  !d
