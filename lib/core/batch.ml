module Wdata = Wpinq_weighted.Wdata
module Ops = Wpinq_weighted.Ops

type 'a t = { data : 'a Wdata.t Lazy.t; uses : (Budget.t * int) list }

(* Use-lists are merged by physical identity of the budget: one budget per
   protected source. *)
let merge_uses ua ub =
  List.fold_left
    (fun acc (b, n) ->
      let rec bump = function
        | [] -> [ (b, n) ]
        | (b', n') :: rest when b' == b -> (b', n' + n) :: rest
        | pair :: rest -> pair :: bump rest
      in
      bump acc)
    ua ub

let lift1 op c = { data = lazy (op (Lazy.force c.data)); uses = c.uses }

let lift2 op a b =
  { data = lazy (op (Lazy.force a.data) (Lazy.force b.data)); uses = merge_uses a.uses b.uses }

let select f = lift1 (Ops.select f)
let where p = lift1 (Ops.where p)
let select_many f = lift1 (Ops.select_many f)
let select_many_list f = lift1 (Ops.select_many_list f)
let concat a b = lift2 Ops.concat a b
let except a b = lift2 Ops.except a b
let union a b = lift2 Ops.union a b
let intersect a b = lift2 Ops.intersect a b
let join ~kl ~kr ~reduce a b = lift2 (Ops.join ~kl ~kr ~reduce) a b
let group_by ~key ~reduce = lift1 (Ops.group_by ~key ~reduce)
let distinct ?bound c = lift1 (Ops.distinct ?bound) c
let shave f = lift1 (Ops.shave f)
let shave_const w = lift1 (Ops.shave_const w)

let source ~budget rows = { data = lazy (Wdata.of_list rows); uses = [ (budget, 1) ] }
let source_records ~budget xs = { data = lazy (Wdata.of_records xs); uses = [ (budget, 1) ] }
let public rows = { data = lazy (Wdata.of_list rows); uses = [] }
let uses c = c.uses

let privacy_cost ~epsilon c =
  List.map (fun (b, n) -> (Budget.name b, float_of_int n *. epsilon)) c.uses

let partition ~keys ~key c =
  (* One parallel group per source budget, shared by all parts of this
     partition; each part charges its own child of that group. *)
  let groups = List.map (fun (b, n) -> (b, n, Budget.parallel_group b)) c.uses in
  List.map
    (fun k ->
      let uses =
        List.map
          (fun (b, n, g) -> (Budget.parallel_child g ~name:(Budget.name b ^ "[part]"), n))
          groups
      in
      (k, { data = lazy (Ops.where (fun x -> key x = k) (Lazy.force c.data)); uses }))
    keys

let charge ?(label = "noisy_count") ~epsilon c =
  if not (Float.is_finite epsilon) || epsilon < 0.0 then
    invalid_arg "Batch.charge: epsilon must be finite and non-negative";
  (* Check all budgets before charging any, so a failed aggregation leaves
     every budget untouched. *)
  List.iter
    (fun (b, n) ->
      let cost = float_of_int n *. epsilon in
      if cost > Budget.remaining b +. 1e-9 then
        raise
          (Budget.Exhausted
             { name = Budget.name b; requested = cost; remaining = Budget.remaining b }))
    c.uses;
  List.iter (fun (b, n) -> Budget.charge ~label b (float_of_int n *. epsilon)) c.uses

(* Charge before evaluating: a raise while evaluating depends on the data,
   so it is an observation and must already be paid for. *)
let noisy_count ~rng ~epsilon c =
  charge ~epsilon c;
  Measurement.create ~rng ~epsilon ~true_data:(Lazy.force c.data)

let unsafe_value c = Lazy.force c.data

module Plans = Plan.Lower (struct
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
