(** Fixed-point weights, the one arithmetic of {!Wdata}, {!Ops} and the
    incremental engine: an integer count of 2{^-40} units in one native
    int.  Integer sums are exact and order-free. *)

exception Overflow of string
(** Raised by {!of_float} on a value outside [±2{^22}] (or NaN), and by
    {!add} on a sum outside the native int range.  Nothing wraps. *)

val limit : float
(** [2{^22}] (about 4.19M): every value, and every sum, must stay below
    it in magnitude. *)

val of_float : float -> int
(** The nearest grid value: [round (x × 2{^40})], half away from zero. *)

val to_float : int -> float
val add : int -> int -> int
val sub : int -> int -> int

val mul_div : int -> int -> int -> int
(** [mul_div a b d] is [q(a × b / d)] ([0] when [a] is): a Join pair's
    weight, [d] its key's norm; [q] rounds to the grid. *)

val scale_share : float -> int -> float -> int
(** [scale_share c w n] is [q(c × (w / n))]: the weight SelectMany gives a
    produced record of weight [c] from an input of grid weight [w], [n]
    its divisor. *)

(** An exact sum of grid values two native ints wide, for totals (a
    target's distance, a dataset's norm) that can outgrow one int. *)
module Wide : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val equal : t -> t -> bool
  val copy : t -> t
  val to_float : t -> float

  val assign : t -> t -> unit
  (** [assign dst src] copies [src]'s value into [dst]. *)

  val restorer : t -> unit -> unit
  (** A closure that puts back the value [t] holds now (an undo-log
      entry). *)
end
