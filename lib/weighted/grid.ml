exception Overflow of string

let scale = 0x1p40
let ulp = 0x1p-40
let limit = 0x1p22

let out_of_range x =
  raise (Overflow (Printf.sprintf "Grid: %h is outside the grid's range (+-2^22)" x))

(* Rounds half away from zero, as [Float.round] does, without its C call:
   [y - trunc y] is exact.  [|x| < 2^22] bounds [|x * 2^40|] below 2^62,
   so [Float.to_int] never sees an out-of-range float; NaN fails the
   comparison too. *)
let[@inline] of_float x =
  if Float.abs x < limit then begin
    let y = x *. scale in
    let i = Float.to_int y in
    let f = y -. Float.of_int i in
    if f >= 0.5 then i + 1 else if f <= -0.5 then i - 1 else i
  end
  else out_of_range x

let[@inline] to_float w = Float.of_int w *. ulp
let overflow () = raise (Overflow "Grid: sum outside the native int range")

(* [min_int] is refused too, so every stored value can be negated. *)
let[@inline] add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 || s = min_int then overflow () else s

let[@inline] sub a b = add a (-b)

(* The operators' rounded contributions live here, beside [of_float] and
   [to_float], so their float math stays in one compilation unit and
   callers exchange only ints and floats they already hold. *)
let mul_div a b d = if a = 0 then 0 else of_float (to_float a *. to_float b /. to_float d)
let scale_share c w n = of_float (c *. (to_float w /. n))

(* A sum wider than one native int: [hi * 2^60 + lo] with [0 <= lo < 2^60]. *)
module Wide = struct
  type t = { mutable hi : int; mutable lo : int }

  let low_bits = 60
  let low_mask = (1 lsl low_bits) - 1
  let create () = { hi = 0; lo = 0 }

  let[@inline] add t w =
    let lo = t.lo + (w land low_mask) in
    t.hi <- add t.hi ((w asr low_bits) + (lo lsr low_bits));
    t.lo <- lo land low_mask

  let equal a b = a.hi = b.hi && a.lo = b.lo
  let copy t = { hi = t.hi; lo = t.lo }
  let to_float t = ((Float.of_int t.hi *. 0x1p60) +. Float.of_int t.lo) *. ulp

  let assign dst src =
    dst.hi <- src.hi;
    dst.lo <- src.lo

  let restorer t =
    let hi = t.hi and lo = t.lo in
    fun () ->
      t.hi <- hi;
      t.lo <- lo
end
