module Codec = Wpinq_persist.Persist.Codec

type t = {
  name : string;
  total : float; (* for children: capacity is dynamic; see [remaining] *)
  mutable spent : float;
  mutable log : (string * float) list;
  kind : kind;
}

and kind = Root | Child of { group : group; cap : float }
and group = { parent : t; mutable max_spent : float }

type exhausted = { name : string; requested : float; remaining : float }

exception Exhausted of { name : string; requested : float; remaining : float }

let check_epsilon fn eps =
  if not (Float.is_finite eps) then invalid_arg (fn ^ ": epsilon must be finite");
  if eps < 0.0 then invalid_arg (fn ^ ": negative epsilon")

let create ~name total =
  if not (Float.is_finite total) then invalid_arg "Budget.create: budget must be finite";
  if total < 0.0 then invalid_arg "Budget.create: negative budget";
  { name; total; spent = 0.0; log = []; kind = Root }

let name (t : t) = t.name

(* Tolerate float rounding when a sequence of charges sums to the total. *)
let slack = 1e-9

let rec remaining t =
  match t.kind with
  | Root -> t.total -. t.spent
  | Child { group = g; cap } ->
      (* The child may reuse the headroom other siblings already paid for
         (up to the group maximum), plus whatever the parent still has —
         bounded by the child's own allocation cap, if it was given one. *)
      Float.min (cap -. t.spent) (remaining g.parent +. g.max_spent -. t.spent)

let total t = match t.kind with Root -> t.total | Child _ -> t.spent +. remaining t
let spent t = t.spent

(* A dry run of [commit] that reports which budget in the chain would be
   overdrawn, without mutating anything — so both charge flavors are atomic
   across parallel-composition parents. *)
let rec check t eps =
  match t.kind with
  | Root ->
      if eps > t.total -. t.spent +. slack then
        Some { name = t.name; requested = eps; remaining = t.total -. t.spent }
      else None
  | Child { group = g; cap } ->
      if eps > cap -. t.spent +. slack then
        Some { name = t.name; requested = eps; remaining = cap -. t.spent }
      else
        (* Parallel composition: only the excess over the group's maximum
           reaches the parent. *)
        let excess = Float.max 0.0 (t.spent +. eps -. g.max_spent) in
        if excess > 0.0 then check g.parent excess else None

let rec commit ~label t eps =
  (match t.kind with
  | Root -> ()
  | Child { group = g; _ } ->
      let excess = Float.max 0.0 (t.spent +. eps -. g.max_spent) in
      if excess > 0.0 then commit ~label:(t.name ^ "/" ^ label) g.parent excess);
  t.spent <- t.spent +. eps;
  (match t.kind with
  | Root -> ()
  | Child { group = g; _ } -> g.max_spent <- Float.max g.max_spent t.spent);
  t.log <- (label, eps) :: t.log

let charge ?(label = "noisy_count") t eps =
  check_epsilon "Budget.charge" eps;
  match check t eps with
  | Some { name; requested; remaining } -> raise (Exhausted { name; requested; remaining })
  | None -> commit ~label t eps

let try_charge ?(label = "noisy_count") t eps =
  check_epsilon "Budget.try_charge" eps;
  match check t eps with
  | Some denial -> Error denial
  | None ->
      commit ~label t eps;
      Ok ()

let log t = List.rev t.log
let parallel_group parent = { parent; max_spent = 0.0 }

let parallel_child ?allocation g ~name =
  (* Validate the allocation at creation, exactly as [try_charge] treats
     ε: a NaN or negative cap would silently poison every later charge
     decision through this account, so it is a programming error here —
     never a constructed-then-broken budget. *)
  let cap =
    match allocation with
    | None -> Float.infinity
    | Some a ->
        if Float.is_nan a then
          invalid_arg "Budget.parallel_child: allocation must not be NaN";
        if not (Float.is_finite a) then
          invalid_arg "Budget.parallel_child: allocation must be finite";
        if a < 0.0 then invalid_arg "Budget.parallel_child: negative allocation";
        a
  in
  { name; total = 0.0; spent = 0.0; log = []; kind = Child { group = g; cap } }

let save t buf =
  (match t.kind with
  | Root -> ()
  | Child _ -> invalid_arg "Budget.save: parallel children are not serializable");
  Codec.write_string buf t.name;
  Codec.write_float buf t.total;
  Codec.write_float buf t.spent;
  Codec.write_list
    (fun buf (label, eps) ->
      Codec.write_string buf label;
      Codec.write_float buf eps)
    buf (List.rev t.log)

let load r =
  let name = Codec.read_string r in
  let total = Codec.read_float r in
  let spent = Codec.read_float r in
  let log_oldest_first =
    Codec.read_list
      (fun r ->
        let label = Codec.read_string r in
        let eps = Codec.read_float r in
        (label, eps))
      r
  in
  { name; total; spent; log = List.rev log_oldest_first; kind = Root }
