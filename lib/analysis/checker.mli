open Core

(** The black-box history consistency checker ([ccopt check]), after
    Biswas–Enea, "On the Complexity of Checking Transactional
    Consistency" (PAPERS.md).

    A history ({!History.t}) is consistent at a level iff there exists
    a total {e commit order} [co] over its transactions, containing the
    session order and the reads-from relation, such that every axiom
    instance holds: for each reads-from pair [WR_x(t1, t2)] and each
    other transaction [t3] writing [x], the level's premise
    [φ(t3, t2)] implies [co(t3, t1)] — "anything [t2] already depends
    on must not overwrite what it read". The levels differ only in the
    premise:

    - {e read committed}: [t3] is the source of an earlier read of
      [t2] (in program order, before [t2]'s read of [x]);
    - {e read atomic}: [t3 → t2] in one session-order or reads-from
      step;
    - {e causal}: [t3 → t2] in the transitive closure of session order
      and reads-from;
    - {e serializability}: [co(t3, t2)] — the premise mentions the
      commit order itself;
    - {e snapshot isolation}: decided by reduction — [SI(h)] iff the
      {!split_si} history is serializable (each transaction splits
      into a read half and a write half; a per-variable token forces
      the halves of write-conflicting transactions not to
      interleave).

    The first three premises are [co]-free, so consistency reduces to
    acyclicity of session order ∪ reads-from ∪ forced edges
    (polynomial, complete — {e saturation}). Serializability is decided
    exactly by a memoized search over session-prefix states (polynomial
    for a bounded number of sessions, the Biswas–Enea tractability
    frontier), with a sound saturation {e chase} run first on small
    histories to extract cycle witnesses.

    Every [Violation] carries a witness the tests replay independently
    ({!replay_cycle}, {!exists_order}); [Unknown] is reserved for
    truncated histories and exhausted search budgets — never a guess. *)

type level =
  | Read_committed
  | Read_atomic
  | Causal
  | Snapshot_isolation
  | Serializability

val levels : level list
(** Weakest to strongest: RC, RA, causal, SI, SER. *)

val level_name : level -> string
(** ["rc"], ["ra"], ["causal"], ["si"], ["ser"]. *)

val level_of_name : string -> level option

val levels_upto : level -> level list
(** The weakest-first prefix of {!levels} up to and including the
    given level — what an engine declaring that level must pass. *)

type edge_reason =
  | Session
      (** source precedes target in a session, or is [init]: the
          virtual initial transaction (id [History.n]), which writes
          value [0] of every variable and precedes everything *)
  | Reads_from of Names.var  (** target read the source's write *)
  | Forced_before of { var : Names.var; source : int; reader : int }
      (** axiom instance: the edge's source is a [var]-writer already
          observed by [reader] (premise holds), so it must commit
          before [source] — the writer [reader] actually read from *)
  | Forced_after of { var : Names.var; source : int; reader : int }
      (** contrapositive with the commit order running the other way:
          [source] precedes the edge's target (a [var]-writer), so
          [reader] must commit before that writer overwrites its
          read. Only arises at levels whose premise mentions [co]
          (SER, SI). *)

type edge = { src : int; dst : int; reason : edge_reason }

type witness =
  | Cycle of edge list
      (** justified edges forming a closed cycle — each edge
          independently checkable against the history *)
  | Dangling_read of { reader : int; var : Names.var; value : int }
      (** a read of a value no transaction wrote (e.g. the write was
          dropped from the record) *)
  | Ambiguous_write of { var : Names.var; value : int; writers : int list }
      (** two external writes carry the same value — the reads-from
          relation is not recoverable. A write of the reserved initial
          value [0] reports here with a single writer. *)
  | Internal_misread of { txn : int; var : Names.var; value : int }
      (** a transaction disagrees with its own writes (INT axiom) *)
  | No_order of { explored : int }
      (** the exhaustive prefix search proved no valid commit order
          exists, without a small cycle to show; [explored] counts
          visited search states. Replayable by {!exists_order}. *)

type verdict =
  | Consistent of int list
      (** witness commit order — passes {!validate_order} *)
  | Violation of witness
  | Unknown of string

type result = {
  level : level;
  verdict : verdict;
  split : bool;
      (** when true (SI), transaction ids in the verdict refer to the
          {!split_si} history: [2t] is the read half of [t], [2t+1]
          its write half, [2n] the initial transaction *)
}

val check : ?budget:int -> History.t -> level -> result
(** Decide one level. [budget] bounds visited search states for the
    SER/SI search (default 2_000_000); exceeding it yields [Unknown].
    Incomplete (truncated) histories yield [Unknown] at every level. *)

val check_all : ?budget:int -> History.t -> result list
(** All of {!levels}, weakest first. *)

val split_si : History.t -> History.t
(** The SI-to-SER reduction. Read halves keep the external reads and
    write a fresh token on the shared variable ["si#x"] for each [x]
    in the write set; write halves read their own token back and keep
    the external writes. [SI(h) ⟺ SER(split_si h)]. *)

val well_formed : History.t -> witness list
(** Value-recoverability and INT checks run before any level:
    ambiguous writes, dangling reads, internal misreads. *)

(* ---------- independent replay (test oracles) ---------- *)

val validate_order : History.t -> level -> int list -> bool
(** Does this total order satisfy sessions, reads-from, and every
    axiom instance of the level? For SI the order must range over
    {!split_si} ids. A [Consistent] verdict's order always passes. *)

val exists_order : History.t -> level -> bool
(** Brute force over all permutations ([n ≤ 8] after splitting;
    raises [Invalid_argument] beyond). Ground truth for tests. *)

val replay_cycle : History.t -> level -> edge list -> bool
(** Re-derive a [Cycle] witness from scratch: the edges must be
    justified by the history (sessions, reads-from, axiom instances —
    premises re-established by an independent naive saturation) and
    close into a cycle. For SI the edges range over {!split_si} ids. *)

(* ---------- printing ---------- *)

val pp_result : n:int -> Format.formatter -> result -> unit
(** [n] is the {e original} history's transaction count. *)

val to_json : source:string -> History.t -> result list -> string
(** The [ccopt check --json] report: the history's label and size, then
    one member per result with its verdict and, for a violation, the
    witness kind and its text as {!pp_result} prints it. [source] says where the
    history came from (a schedule, a scheduler run, a trace file). *)
