(** Directed graphs over integer vertices [0 .. n-1].

    Substrate for the conflict (serialization) graphs of Section 4, the
    wait-for graphs of the lock manager, and block-connectivity checks in
    the locking geometry. Mutable adjacency-set representation; all
    algorithms are deterministic. *)

type t

val create : int -> t
(** [create n] is an empty graph with vertices [0 .. n-1]. *)

val n_vertices : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds edge [u → v]. Idempotent. Self-loops allowed
    (and count as cycles). Raises [Invalid_argument] on out-of-range
    vertices. *)

val remove_edge : t -> int -> int -> unit

val has_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Successors in increasing order. *)

val pred : t -> int -> int list
(** Predecessors in increasing order (computed). *)

val edges : t -> (int * int) list
(** All edges, lexicographically ordered. *)

val n_edges : t -> int

val copy : t -> t

val has_cycle : t -> bool
(** [true] iff the graph contains a directed cycle (self-loops count). *)

val topological_sort : t -> int array option
(** [Some order] listing vertices such that every edge goes forward, or
    [None] if the graph is cyclic. Kahn's algorithm; ties broken by
    smallest vertex for determinism. *)

val find_cycle : t -> int list option
(** [find_cycle g] returns the vertices of some directed cycle in order
    (first vertex repeated implicitly), or [None]. Used to pick deadlock
    victims from wait-for graphs. *)

val reachable : t -> int -> bool array
(** [reachable g u] marks every vertex reachable from [u] (including
    [u]). *)

val transitive_closure : t -> t
(** A new graph with an edge [u → v] whenever [v] is reachable from [u]
    by a non-empty path. *)

val undirected_components : t -> int array
(** Connected components ignoring edge direction: each vertex labelled
    with its component's index, numbered from 0 in order of each
    component's smallest vertex. *)

type graph = t
(** Alias so {!Acyclic} can refer to the plain graph type. *)

(** Online (incremental) acyclicity over a maintained topological
    order. The structure keeps the invariant that the graph is acyclic:
    {!Acyclic.add_edges_acyclic} refuses — with a cycle witness — any
    batch of edges that would break it. Only the window of the order
    between the new edges' targets and sources is searched, and a batch
    that fits reorders it with one rotation. Edge and vertex removals
    are O(degree) and never trigger a reordering (deleting edges cannot
    invalidate a topological order).

    Insertion takes lists ({!Acyclic.add_edges_acyclic}) or reads one
    target's sources in place ({!Acyclic.add_edges_acyclic_of}). One
    that follows the clear search it needs reuses it and only rotates
    and links: the list form sees this for itself, the in-place form is
    told ({!Acyclic.add_edges_vetted_of}).

    This is the substrate for the serialization-graph scheduler's hot
    path: one admission test per request, one insertion call per grant,
    no graph copies, no full cycle-detection reruns. *)
module Acyclic : sig
  type t

  val create : int -> t
  (** [create n] is the empty acyclic graph on vertices [0 .. n-1], with
      the identity topological order. *)

  val n_vertices : t -> int
  val n_edges : t -> int

  val has_edge : t -> int -> int -> bool
  (** A scan of the source's out-edges: O(out-degree). No adjacency
      matrix is kept, so memory is linear in vertices plus edges. *)

  val succ : t -> int -> int list
  (** Successors in increasing vertex order. *)

  val pred : t -> int -> int list
  (** Predecessors in increasing vertex order (stored, O(degree)). *)

  val iter_succ : t -> int -> (int -> unit) -> unit
  (** [iter_succ g u f] applies [f] to every successor of [u], newest
      edge first. Unlike {!succ} it neither sorts nor builds a list:
      nothing is allocated. [f] must not modify [g]. *)

  val in_degree : t -> int -> int
  (** Number of predecessors, without materialising them. O(1). *)

  val edges : t -> (int * int) list
  (** All edges, lexicographically ordered. *)

  val add_edges_acyclic : t -> sources:int list -> targets:int list -> bool
  (** [add_edges_acyclic g ~sources ~targets] adds every edge [s → t],
      [s ∈ sources], [t ∈ targets], and returns [true] if the graph stays
      acyclic (edges already present are kept as they are). Otherwise it
      returns [false], the graph and its order are unchanged, and
      {!last_path} is a cycle witness: a path from a target to a source,
      which the batch would close. A source equal to a target answers
      [[|target|]]. Let [lb] be the lowest slot of any target in the
      order, [ub] the highest of any source: with [ub < lb] the call
      only inserts. Otherwise one search from the targets, bounded by
      [ub], is the cycle check, and on success the vertices it reached
      move after the rest of the window [[lb, ub]], each group keeping
      its order. Each source's new out-edges are appended in the order
      of [targets]; an edge already present, or repeated in the batch,
      is inserted once, at its first occurrence.

      Either list empty: [true] at once, with nothing stamped, checked or
      changed, and {!last_path} is [[||]].

      {b Reuse.} When the last clear {!reaches_any} was [reaches_any g
      ~sources:targets ~targets:sources] on these very lists (physically
      equal) and nothing has searched or changed [g] since, its search
      is this insertion's: only the rotation and the links run, and they
      leave the graph, its out-array order and its topological order
      exactly as the full insertion would. Lists are immutable, so
      physical identity proves the contents. Any query or insertion, any
      link and any removal in between voids the record, and the full
      insertion runs. A marking search, or an insertion with an empty
      side, keeps it. *)

  val add_edges_acyclic_of :
    t ->
    excluding:int ->
    lists:int list array ->
    base:int ->
    pick:int array ->
    chain:bool array ->
    target:int ->
    bool
  (** {!add_edges_acyclic} with the one target [target] and the sources
      read in place as in {!closes_cycle_any_of}: the union of the lists
      [lists.(base + c)] for [c] in [pick], less [excluding] ([-1] drops
      none). It reuses no earlier search ({!add_edges_vetted_of} does):
      it is that search, then, when it is clear, a search-free
      rotate-and-link step: the window moves by the search's marks, and
      the edges are linked. The cycle check reads a chain list at its
      head, and its witness is the full read's. The edges come from
      every source of a list whose [chain.(c)] is false, but only from
      the head of one whose flag is true, so the head's edge implies the
      rest; all flags false link every source. Nothing is allocated
      unless an adjacency array grows. *)

  val add_edges_vetted_of :
    t ->
    excluding:int ->
    lists:int list array ->
    base:int ->
    pick:int array ->
    chain:bool array ->
    target:int ->
    bool
  (** {!add_edges_acyclic_of}, reusing the search of the last clear
      {!closes_cycle_any_of}: when that was for [target] and nothing
      has searched or changed [g] since, only the rotate-and-link step
      runs, and leaves the graph, its out-array order and its
      topological order exactly as the full insertion would. Any query
      or insertion, any link and any removal in between voids the
      record, and the full insertion runs. A marking search
      ({!mark_reachable}, {!mark_reaching_any_of}) keeps it: its marks
      are stamps of their own. The caller
      vouches that the lists, [pick] and [excluding] are those that
      search read, unchanged. [chain] picks the links; it may differ
      from the search's flags only on lists that meet the chain
      precondition, where flags move neither the marks nor the bound.

      Why an explicit entry, when the list form checks for itself: the
      graph cannot see the contents of [lists], a mutable array the
      caller may change between the search and the insertion without
      touching [g] (a [Sched.Cgraph] grant that links nothing adds its
      entry with no epoch bump), so neither the epoch nor the target
      proves that the sources are the ones searched. The caller's own
      record of the step its search vetted does, and with it a grant
      that breaks the search-then-grant contract runs the full
      insertion, which fails loudly on a cycle instead of rotating by
      the wrong marks. *)

  val bypass : t -> int -> int -> (int -> bool) -> unit
  (** [bypass g u m keep] adds an edge [u → v] for every successor [v] of
      [m] with [keep v] that [u] lacks, in [m]'s out-edge order, so
      that each kept path [u → m → v] survives the removal of [m].
      [u] must have an edge to [m] (else [Invalid_argument]), so the
      maintained order already holds the new edges and nothing is
      searched. [keep] must not modify [g]. Nothing is allocated unless
      an adjacency array grows. *)

  val closes_cycle_any_of :
    t ->
    excluding:int ->
    lists:int list array ->
    base:int ->
    pick:int array ->
    chain:bool array ->
    target:int ->
    bool
  (** Would adding every edge [u → target], [u] a source, create a
      cycle? The sources are the union of the lists [lists.(base + c)]
      for [c] in [pick], read in place: a request whose conflicting
      accessors are spread over several lists is tested without building
      their union. [excluding] drops one vertex from the sources ([-1]
      drops none; the SGT scheduler passes the requester, which its
      variables' accessor lists may hold). Since every new edge ends at
      [target], a cycle is a source reachable from [target], or equal to
      it; one search from [target], bounded by the topological-order
      window, answers for the whole batch.

      {b Chains.} A list whose [chain.(c)] is true is read at its {e
      head}, its first member other than [excluding]: the search stamps
      the head alone. Precondition: every member of a flagged list
      reaches its head (members other than [excluding]; a path may pass
      through it). Then the answer, the window bound and, after the
      {e witness cut}, {!last_path} are those of a read of every member:
      on [true], the members are stamped and the path is cut at the
      first source on it, where a full read stops. Without the
      precondition the answer stays sound only for flags all false.

      The graph and its order are never modified, and nothing is
      allocated on [false]. A [false] answer records its search for
      {!add_edges_vetted_of}. *)

  val mark_reachable : t -> int -> unit
  (** [mark_reachable g u] marks every vertex reachable from [u], [u]
      included: one search over out-edges, read back with {!marked}.
      Nothing is allocated. *)

  val mark_reaching_any_of :
    t ->
    excluding:int ->
    lists:int list array ->
    base:int ->
    pick:int array ->
    chain:bool array ->
    unit
  (** Marks every vertex that is, or reaches, a source: one search over
      in-edges from every source at once. The sources are read in place
      as in {!closes_cycle_any_of}: the union of [lists.(base + c)] for
      [c] in [pick], less [excluding] ([-1] drops none), a flagged list
      read at its head under the same precondition, which leaves the
      marks unchanged. An excluded vertex is still marked when it
      reaches a source. Read back with {!marked} or {!nth_marked};
      nothing is allocated. *)

  val marked : t -> int -> bool
  (** Whether the most recent {!mark_reachable} or
      {!mark_reaching_any_of} marked the vertex. Every other query and
      every edge insertion reuses the marks' scratch space, so read them
      before calling anything else on [g]. A marking search keeps the
      record {!add_edges_vetted_of} reads, but overwrites
      {!last_path}. *)

  val n_marked : t -> int
  (** How many vertices the most recent marking search marked. *)

  val nth_marked : t -> int -> int
  (** [nth_marked g i], [0 <= i < n_marked g] (else [Invalid_argument]):
      the marked vertices, each once, in no promised order. Reporting
      costs what the search reached, not the graph's size. Read them as
      {!marked}: before anything else on [g]. *)

  val reaches_any : t -> sources:int list -> targets:int list -> bool
  (** Some source is, or reaches, some target: would adding every edge
      [t → s], [t ∈ targets], [s ∈ sources], close a cycle? One search
      from all sources, sharing one seen set and bounded by the
      targets' topological-order window. Either list empty: [false].
      Pure query; nothing is allocated. A [false] answer leaves the
      record {!add_edges_acyclic} reads. So [reaches_any g
      ~sources:[v] ~targets:us] asks whether the edges [u → v], [u ∈
      us], would close a cycle, with a witness from [v] on [true]. *)

  val last_path : t -> int array
  (** The path behind the most recent [true] answer of
      {!closes_cycle_any_of} or {!reaches_any}, or [false] answer of
      {!add_edges_acyclic} or {!add_edges_acyclic_of}: consecutive
      vertices are joined by edges, and it runs from the target to the
      source found (from the source to the target found, for
      {!reaches_any}). A source equal to the target answers
      [[|target|]]; an insertion that answers [true] leaves [[||]]. A
      fresh array, one word a vertex, which the caller may keep. The
      path is the search's first descent, out-edges newest first, to a
      wanted vertex: the bound skips only vertices that reach none, so
      the maintained order never changes it. Every member of a list
      read at its head counts as wanted (the witness cut of
      {!closes_cycle_any_of}). Every search and edge insertion reuses
      its scratch space, so read it before calling anything else on
      [g]. *)

  val remove_edge : t -> int -> int -> unit
  (** Removes the edge if present; like {!has_edge}, O(out-degree). *)

  val remove_vertex : t -> int -> unit
  (** Remove every edge incident to the vertex (the vertex itself stays,
      isolated — vertex sets are fixed at creation). *)

  val topological_order : t -> int array
  (** The maintained topological order, as an array of vertices. Fresh
      copy; every edge [u → v] has [u] before [v] in it. *)

  val to_digraph : t -> graph
  (** Snapshot into a plain {!type:graph} (for algorithms the incremental
      structure does not provide). *)
end
