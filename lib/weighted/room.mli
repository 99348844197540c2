(** The one capacity rule of every growable array in {!Intern}, {!Wdata}
    and the incremental engine (hash tables aside, which double under a
    load factor): an array that must hold [n] entries gets capacity
    {!cap}[ n], twice [n], whether it grows past its end (so growth
    doubles) or the engine builds it for [n] entries (so a bulk build
    leaves the room growth would have).  See DESIGN.md, "Builds leave
    room to grow". *)

val cap : int -> int
(** [cap n] is [max 16 (2 n)]. *)

val reserve : 'a array -> int -> 'a -> 'a array
(** [reserve a n fill] is [a] if its capacity is at least [cap n], else a
    copy of capacity [cap n], [fill] past [a]'s end. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a n fill] is [a] if it holds [n] entries, else [reserve a n fill]. *)

val reserve_bytes : ?width:int -> Bytes.t -> int -> Bytes.t
val grow_bytes : ?width:int -> Bytes.t -> int -> Bytes.t
(** The same for [width]-byte entries (default [1]), zero-filled. *)
