(** Joint post-processing of the noisy degree sequence and noisy degree
    CCDF (paper, Section 3.1).

    A non-increasing degree sequence is a monotone staircase path on the
    integer grid from [(0, ymax)] down-and-right to [(xmax, 0)].  Given the
    noisy "vertical" degree-sequence measurements [v] (indexed by position)
    and the noisy "horizontal" CCDF measurements [h] (indexed by degree),
    the best consistent sequence minimizes

      [Σ_{(x,y) ∈ path} |v.(x) − y| + |h.(y) − x|]

    which is exactly a shortest path where a rightward step at height [y]
    costs [|v.(x) − y|] (committing position [x] to degree [y]) and a
    downward step at position [x] costs [|h.(y) − x|].  Moves only go
    right or down, so the grid is a DAG and one dynamic-programming sweep
    over it finds the optimum, keeping a rolling column of distances plus
    one backtrack bit per cell (about 29 MB at 75k positions by 3k
    degrees).  The cost is summed along the path from the start, so it is
    bit-equal to a shortest-path search's.  Where two paths tie exactly
    (possible with integer-valued inputs, not with noisy ones), the fit
    follows the predecessor with the smaller distance, then the rightward
    step. *)

val fit : v:float array -> h:float array -> int array
(** [fit ~v ~h] returns the fitted non-increasing degree sequence:
    [length v] entries, each in [0 .. length h].  [v.(x)] is the noisy
    count for sequence position [x]; [h.(y)] the noisy count of vertices
    with degree > [y]. *)

val fit_cost : v:float array -> h:float array -> int array * float
(** Like {!fit}, also returning the optimal path cost (for tests and
    diagnostics). *)
