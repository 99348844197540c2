(** Simple undirected graphs and the exact statistics the paper's
    experiments measure against (Section 5: Tables 1–3).

    Vertices are integers [0 .. n-1].  Graphs are simple (no self-loops, no
    parallel edges); construction normalizes and deduplicates.  The exact
    statistics here serve as ground truth next to the differentially-private
    estimates, and as inputs to the synthesis workflow's progress traces. *)

type t

val of_edges : ?n:int -> (int * int) list -> t
(** [of_edges ?n edges] builds a graph from an edge list.  Self-loops and
    duplicates (in either orientation) are dropped.  [n] defaults to one
    more than the largest vertex id mentioned; isolated vertices beyond
    that must be declared through [n]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges. *)

val edges : t -> (int * int) list
(** The edge list, with [u < v] in every pair. *)

val directed_edges : t -> (int * int) list
(** Both orientations of every edge — the symmetric directed dataset the
    paper's graph queries consume (each record carries weight 1.0). *)

val adj : t -> int -> int array
(** Sorted neighbor array of a vertex. *)

val has_edge : t -> int -> int -> bool
val degree : t -> int -> int
val degrees : t -> int array
val dmax : t -> int

val sum_deg_sq : t -> int
(** [Σ_v d_v²] — the quantity that governs the incremental engine's memory
    and per-step cost for triangle queries (Figure 6). *)

val degree_sequence_desc : t -> int array
(** Vertex degrees sorted non-increasing (the object Section 3.1
    measures). *)

val degree_ccdf : t -> int array
(** [ccdf.(i)] is the number of vertices with degree strictly greater than
    [i], for [i = 0 .. dmax-1] — the functional inverse of
    {!degree_sequence_desc}. *)

val triangle_count : t -> int
(** Exact number of triangles (the paper's Δ), counted degree-ordered in
    [O(m √m)]: each edge points to its endpoint of higher (degree, id)
    rank, and a triangle is found once, from its lowest-ranked vertex. *)

val triangles_by_degree : t -> ((int * int * int) * int) list
(** Exact TbD ground truth: for each sorted degree triple [(x ≤ y ≤ z)],
    the number of triangles whose vertices have those degrees. *)

val square_count : t -> int
(** Exact number of 4-cycles. *)

val squares_by_degree : t -> ((int * int * int * int) * int) list
(** Exact SbD ground truth, keyed by sorted degree quadruple.  Costs
    [O(Σ common-neighbors²)]; intended for the small graphs of tests and
    examples. *)

val joint_degree_counts : t -> ((int * int) * int) list
(** For each degree pair [(x ≤ y)], the number of edges whose endpoints
    have degrees [x] and [y] (the JDD of Section 3.2). *)

val assortativity : t -> float
(** Newman's degree assortativity [r]: the Pearson correlation of the
    degrees at the two ends of a uniformly random edge.  Returns [nan] on
    degree-regular graphs (zero variance).  Its three sums are exact
    integer sums, converted to floats once. *)

val clustering_coefficient : t -> float
(** Global clustering coefficient: [3·Δ / #(open length-2 paths)]. *)

val tbi_signal : t -> float
(** The exact value of the TbI query's single count (Eq. 8):
    [Σ_{triangles (a,b,c)} min(1/da,1/db) + min(1/da,1/dc) + min(1/db,1/dc)].
    This is the "signal" the MCMC fit chases in Section 5.3. *)

(** {1 Mutable graphs for random walks}

    The degree-preserving edge-swap walk (Section 5.1) and [Random(G)]
    rewiring both edit graphs in place. *)

module Mutable : sig
  type graph := t
  type t

  type swap = { remove : (int * int) * (int * int); add : (int * int) * (int * int) }
  (** A double-edge swap: [remove = ((a,b), (c,d))], [add = ((a,d), (c,b))]
      with all four pairs normalized [u < v].  Swaps preserve every vertex
      degree. *)

  val of_graph : graph -> t
  val to_graph : t -> graph
  val copy : t -> t

  val edge_array : t -> (int * int) array
  (** A copy of the internal edge array {e in its current positional
      order}.  The random walk indexes edges by position, so the order is
      part of the walk's state: checkpoints must persist it exactly for a
      resumed chain to retrace the original one. *)

  val of_edge_array : n:int -> (int * int) array -> t
  (** Rebuilds a mutable graph from {!edge_array} output, preserving the
      positional order.  Raises [Invalid_argument] on out-of-range ids,
      self-loops, or duplicate edges — a checkpoint that decodes into an
      invalid graph is rejected rather than repaired. *)

  val n : t -> int
  val m : t -> int
  val has_edge : t -> int -> int -> bool
  val degree : t -> int -> int

  val triangle_count : t -> int
  val assortativity : t -> float
  (** {!Graph.triangle_count} and {!Graph.assortativity} of [to_graph t],
      read from the edge arrays without building it. *)

  val propose_swap : t -> Wpinq_prng.Prng.t -> swap option
  (** Draws two distinct random edges and a random re-pairing; [None] if the
      result would create a self-loop or a parallel edge (the proposal is
      simply rejected, as in the paper's walk). *)

  val apply : t -> swap -> unit
  (** Applies a valid swap.  Raises [Invalid_argument] if the removed edges
      are absent or the added ones present. *)

  val invert : swap -> swap
  (** The swap that undoes [swap]. *)

  val delta : swap -> ((int * int) * float) list
  (** The weight changes the swap induces on the {e symmetric directed}
      edge dataset: 8 records (±both orientations of all four edges) —
      ready to feed to the incremental engine as one batch. *)
end
