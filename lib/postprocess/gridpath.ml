(* The grid is a DAG, so one sweep in topological order (columns left to
   right, each from the top down) finds the optimum.  [dist] is a rolling
   column: [dist.(y)] holds d(x - 1, y) until the sweep overwrites it with
   d(x, y).  Costs are summed along the path from the start, as a
   shortest-path search sums them, so the optimum is bit-equal to
   Dijkstra's. *)
let fit_cost ~v ~h =
  let xmax = Array.length v and ymax = Array.length h in
  let rows = ymax + 1 in
  let horizontal = Bytes.make (((xmax + 1) * rows + 7) / 8) '\000' in
  let set_horizontal cell =
    let b = cell lsr 3 in
    Bytes.set_uint8 horizontal b (Bytes.get_uint8 horizontal b lor (1 lsl (cell land 7)))
  in
  let is_horizontal cell = Bytes.get_uint8 horizontal (cell lsr 3) land (1 lsl (cell land 7)) <> 0 in
  let dist = Array.make rows infinity in
  dist.(ymax) <- 0.0;
  for x = 0 to xmax do
    for y = ymax downto 0 do
      if x = 0 then begin
        if y < ymax then dist.(y) <- dist.(y + 1) +. Float.abs (h.(y) -. float_of_int x)
      end
      else begin
        let left = dist.(y) +. Float.abs (v.(x - 1) -. float_of_int y) in
        let up = if y = ymax then infinity else dist.(y + 1) +. Float.abs (h.(y) -. float_of_int x) in
        (* Ties go to the predecessor with the smaller distance (the one a
           search settles first), then to the horizontal move. *)
        if y = ymax || left < up || (left = up && dist.(y) <= dist.(y + 1)) then begin
          dist.(y) <- left;
          set_horizontal ((x * rows) + y)
        end
        else dist.(y) <- up
      end
    done
  done;
  (* Walk back from the goal; a horizontal step into column x fixes
     position x - 1 at degree y. *)
  let seq = Array.make xmax 0 in
  let x = ref xmax and y = ref 0 in
  while !x > 0 || !y < ymax do
    if is_horizontal ((!x * rows) + !y) then begin
      seq.(!x - 1) <- !y;
      decr x
    end
    else incr y
  done;
  (seq, dist.(0))

let fit ~v ~h = fst (fit_cost ~v ~h)
