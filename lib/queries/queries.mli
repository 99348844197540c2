(** The paper's graph analyses, written once in the wPINQ language
    (Sections 3.1–3.5, 5.2–5.3).

    Every query consumes the {e symmetric directed} edge dataset: both
    orientations of each undirected edge, weight 1.0 each (the data model of
    Section 3).  Instantiate {!Make} with {!Wpinq_core.Batch} to measure a
    protected graph, with {!Wpinq_core.Flow} to drive the MCMC fit, or with
    {!Wpinq_core.Plan} to reify the pipeline as a first-class DAG — the
    query text, and hence the privacy accounting, is identical.

    Privacy costs are no longer asserted here by hand: they are {e derived}
    by {!Wpinq_core.Plan.uses} from the reified pipeline (the number of
    root-to-source paths, the multiplier sequential composition applies to
    ε) and property-tested to match both the per-query doc-comments below
    (degree CCDF / sequence / histogram 1×, paths3 3×, JDD 4×, TbI 4×,
    SbI 6×, TbD 9×, SbD 12×, over the symmetric source) and what
    {!Wpinq_core.Batch} actually debits from a {!Wpinq_core.Budget.t}.
    Comparisons against work on undirected graphs double these
    (Theorems 2–3), because one undirected edge is two records here.

    Pipeline builders are memoized on the physical identity of their input
    (e.g. [tbd sym == tbd sym]), so measurements built from the same
    collection share intermediates — over {!Wpinq_core.Plan} the shared
    values are shared DAG nodes, and a multi-target fit propagates each
    MCMC delta through the common prefix once per step.

    Memo lifetime: a cached pipeline lives exactly as long as its input
    and never keeps the input alive.  The caches are keyed by ephemeron,
    so once the caller drops a collection (e.g. the secret-derived [sym]
    after a release), it, every pipeline built from it, and anything those
    reach (datasets, engines) become collectable; dead entries are pruned
    on the next insert. *)

module Make (L : Wpinq_core.Lang.S) : sig
  type edge = int * int

  val symmetrize : edge L.t -> edge L.t
  (** From an undirected edge list (one orientation per edge) to the
      symmetric directed dataset.  Counts as two uses of the input. *)

  val degrees : edge L.t -> (int * int) L.t
  (** [(vertex, degree)] pairs, each at weight 0.5 (Section 2.5). *)

  val degree_ccdf : edge L.t -> int L.t
  (** Record [i] weighted by the number of vertices of degree > [i]
      (Section 3.1). *)

  val degree_sequence : edge L.t -> int L.t
  (** Record [j] weighted by the [j]-th largest vertex degree: the
      non-increasing degree sequence, obtained by transposing the CCDF
      (Section 3.1). *)

  val nodes : edge L.t -> int L.t
  (** Each vertex at weight 0.5 (the Shave pipeline of Section 2.8). *)

  val node_count : edge L.t -> unit L.t
  (** A single record [()] of weight [|V| / 2]. *)

  val edge_count : edge L.t -> unit L.t
  (** A single record [()] of weight [2m] (each directed record counts). *)

  val paths2 : edge L.t -> (int * int * int) L.t
  (** Length-two paths [(a,b,c)], [a ≠ c], each at weight [1/(2 d_b)]
      (Section 2.7). *)

  val jdd : edge L.t -> (int * int) L.t
  (** Joint degree distribution: record [(d_a, d_b)] for each directed edge
      [(a,b)], at weight [1 / (2 + 2 d_a + 2 d_b)] (Section 3.2, Eq. 3).
      Costs 4 uses. *)

  val tbd : ?bucket:int -> edge L.t -> (int * int * int) L.t
  (** Triangles by degree (Section 3.3): sorted degree triples, where each
      triangle with degrees [x ≤ y ≤ z] contributes total weight
      [3 / (x² + y² + z²)] (Eq. 4 across its six permutations).  [bucket]
      (default 1) divides reported degrees by [k], the Section 5.2 remedy
      that concentrates signal in fewer records.  Costs 9 uses. *)

  val sbd : ?bucket:int -> edge L.t -> (int * int * int * int) L.t
  (** Squares (4-cycles) by degree (Section 3.4): sorted degree quadruples;
      each square [a-b-c-d] contributes weight Eq. (6) through each of its
      eight traversals.  Costs 12 uses. *)

  val tbi : edge L.t -> unit L.t
  (** Triangles by intersect (Section 5.3): a single record [()] whose
      weight is Eq. (8) — paths intersected with their rotation.  Little
      direct meaning, strong MCMC signal, and only 4 uses. *)

  val degree_histogram : edge L.t -> int L.t
  (** Record [d] weighted by [0.5 × (number of vertices of degree d)] —
      the degree histogram, at the same 1-use cost as the sequence. *)

  val paths3 : edge L.t -> (int * int * int * int) L.t
  (** Length-three paths [(a,b,c,d)] with no repeated endpoints against
      their neighbors ([a ≠ c], [b ≠ d], [a ≠ d]); building block for
      4-vertex motifs (Section 3.5).  Costs 3 uses. *)

  val sbi : edge L.t -> unit L.t
  (** Squares by intersect — our Section 3.5-style generalization of TbI to
      4-cycles: length-three paths intersected with their double rotation,
      collapsed to a single count.  A record survives the intersection iff
      the path closes into a 4-cycle, so the count is a weighted square
      signal measured at constant noise for 6 uses (vs. SbD's 12). *)
end

(** {1 Interpretation helpers}

    Closed-form record weights, for turning noisy weights back into counts
    and for tests. *)

val tbd_triple_weight : int * int * int -> float
(** Total TbD weight a triangle with (sorted) vertex degrees [(x,y,z)]
    contributes to its record: [3 / (x² + y² + z²)]. *)

val jdd_pair_weight : int * int -> float
(** TbD analogue for the JDD: [1 / (2 + 2 d_a + 2 d_b)] per directed
    edge. *)

val sbd_cycle_weight : int -> int -> int -> int -> float
(** [sbd_cycle_weight da db dc dd] is Eq. (6): the weight of one traversal
    [a-b-c-d] of a square whose vertices have those degrees in cycle
    order.  A square contributes through 8 traversals. *)

val tbi_triangle_term : int -> int -> int -> float
(** One triangle's contribution to the TbI count (Eq. 8):
    [min(1/da,1/db) + min(1/da,1/dc) + min(1/db,1/dc)]. *)
