type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }
let save t = Printf.sprintf "%016Lx" t.state

let restore s =
  if String.length s <> 16 then
    invalid_arg "Prng.restore: state must be exactly 16 hex characters";
  match Int64.of_string_opt ("0x" ^ s) with
  | Some state -> { state }
  | None -> invalid_arg "Prng.restore: malformed hex state"

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (bits64 t) }

(* Cursor introspection, for bit-exact rollback of speculative draws: a
   [mark] taken before a draw and a later [rewind] put the generator back
   on the identical stream, so the next draw reproduces the same bits. *)
let mark t = t.state
let rewind t cursor = t.state <- cursor

(* The stream the (i+1)-th of [i+1] consecutive [split] calls would
   return, computed without moving [t]'s cursor.  The cursor walks the
   golden-gamma lattice one increment per draw, so the i-th future split
   is a pure function of (state, i): lookahead streams can be dealt for
   steps not yet taken, in any order, without perturbing the master
   stream — the foundation of the parallel speculative walk. *)
let split_nth t i =
  if i < 0 then invalid_arg "Prng.split_nth: negative index";
  { state = mix64 (mix64 (Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma))) }

(* Deal the first [n] lookahead streams in one call: [deal t n] equals
   [Array.init n (split_nth t)] but walks the lattice with one running
   cursor instead of recomputing the offset product per stream.  The
   scheduler re-deals per batch with a batch-dependent [n] (the width,
   clamped to cadence boundaries), so this is on the dispatch hot path. *)
let deal t n =
  if n < 0 then invalid_arg "Prng.deal: negative count";
  let cursor = ref t.state in
  Array.init n (fun _ ->
      cursor := Int64.add !cursor golden_gamma;
      { state = mix64 (mix64 !cursor) })

(* Advance the cursor as if [k] draws ([bits64] or [split]) had been
   taken, in O(1).  After [advance t k], [split t] returns exactly what
   [split_nth t k] returned before. *)
let advance t k =
  if k < 0 then invalid_arg "Prng.advance: negative count";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int k) golden_gamma)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits for exact uniformity. *)
  let b = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r b in
    if Int64.(sub r v > add (sub max_int b) 1L) then draw ()
    else Int64.to_int v
  in
  draw ()

let uniform t =
  (* 53 random bits scaled into [0,1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. 0x1.0p-53

let uniform_pos t = 1.0 -. uniform t
let float t bound = uniform t *. bound
let bool t = Int64.logand (bits64 t) 1L = 1L

let laplace t ~scale =
  (* Inverse-CDF: u uniform in (-1/2, 1/2]; x = -b * sgn(u) * ln(1 - 2|u|). *)
  let u = uniform_pos t -. 0.5 in
  let s = if u >= 0.0 then 1.0 else -1.0 in
  -.scale *. s *. log (1.0 -. (2.0 *. Float.abs u))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  -.log (uniform_pos t) /. rate

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = uniform_pos t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let gaussian t =
  let u1 = uniform_pos t and u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
