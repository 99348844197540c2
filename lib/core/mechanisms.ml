module Prng = Wpinq_prng.Prng
module Wdata = Wpinq_weighted.Wdata

let clip clamp v = Float.max (-.clamp) (Float.min clamp v)

(* Sums run in sorted-record order: table order is not canonical. *)
let clipped_sum ~clamp ~f rows =
  List.fold_left (fun acc (x, w) -> acc +. (w *. clip clamp (f x))) 0.0 rows

let noisy_sum ~rng ~epsilon ~clamp ~f c =
  if clamp <= 0.0 then invalid_arg "Mechanisms.noisy_sum: clamp must be positive";
  if not (Float.is_finite epsilon) || epsilon <= 0.0 then
    invalid_arg "Mechanisms.noisy_sum: epsilon must be finite and positive";
  Batch.charge ~label:"noisy_sum" ~epsilon c;
  let rows = Wdata.to_sorted_list (Batch.unsafe_value c) in
  clipped_sum ~clamp ~f rows +. Prng.laplace rng ~scale:(clamp /. epsilon)

let noisy_average ~rng ~epsilon ~clamp ~f c =
  if clamp <= 0.0 then invalid_arg "Mechanisms.noisy_average: clamp must be positive";
  if not (Float.is_finite epsilon) || epsilon <= 0.0 then
    invalid_arg "Mechanisms.noisy_average: epsilon must be finite and positive";
  Batch.charge ~label:"noisy_average" ~epsilon c;
  let rows = Wdata.to_sorted_list (Batch.unsafe_value c) in
  let half = epsilon /. 2.0 in
  let noisy_sum = clipped_sum ~clamp ~f rows +. Prng.laplace rng ~scale:(clamp /. half) in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 rows in
  let noisy_weight = total +. Prng.laplace rng ~scale:(1.0 /. half) in
  noisy_sum /. Float.max 1.0 noisy_weight

let exponential ~rng ~epsilon ~candidates ~score c =
  if candidates = [] then invalid_arg "Mechanisms.exponential: no candidates";
  if not (Float.is_finite epsilon) || epsilon <= 0.0 then
    invalid_arg "Mechanisms.exponential: epsilon must be finite and positive";
  Batch.charge ~label:"exponential" ~epsilon c;
  let data = Batch.unsafe_value c in
  let scores = List.map (fun r -> (r, score r data)) candidates in
  (* Normalize by the max score so the exponentials stay finite. *)
  let best = List.fold_left (fun acc (_, s) -> Float.max acc s) neg_infinity scores in
  let weights = List.map (fun (r, s) -> (r, exp (epsilon *. (s -. best) /. 2.0))) scores in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
  let draw = Prng.uniform rng *. total in
  let rec pick acc = function
    | [] -> fst (List.hd (List.rev weights))
    | (r, w) :: rest -> if acc +. w >= draw then r else pick (acc +. w) rest
  in
  pick 0.0 weights
