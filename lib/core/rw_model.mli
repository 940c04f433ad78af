(** The read/write refinement of the step model (the Section 6
    extension).

    The paper's steps are atomic read-modify-writes, which makes
    final-state, view and conflict serializability coincide. Real
    systems distinguish pure reads from blind writes; this module
    implements the classical refined model so the library can exhibit
    the separations [CSR ⊊ VSR ⊊ FSR] and benchmark the tests against
    each other (experiment X1).

    A history is a sequence of actions on variables; each transaction's
    actions are totally ordered within it. An action is an {!Op.t}
    paired with the variable it touches — the same operation type the
    rest of the system uses. The classical fragment is [Op.Read] /
    [Op.Write] (use {!read} and {!write}); {!conflict_serializable}
    draws its edges from {!Commute.conflicts}, which coincides with the
    textbook "at least one writes" rule on that fragment and extends it
    to the semantic operations. *)

type action = { op : Op.t; var : Names.var }

val read : Names.var -> action
(** [{ op = Op.Read; var }]. *)

val write : Names.var -> action
(** [{ op = Op.Write; var }] — a blind write. *)

type step = { id : Names.step_id; action : action }

type history = step array

val make : (action list) list -> history
(** [make per_tx] flattens per-transaction action lists into a serial
    history (transaction order); use {!interleave} for general ones. *)

val interleave : (action list) list -> int array -> history
(** [interleave per_tx order] builds the history whose [k]-th step comes
    from transaction [order.(k)] (the j-th occurrence takes its j-th
    action). Raises [Invalid_argument] if [order] has the wrong
    occurrence counts. *)

val var_of : action -> Names.var
val is_write : action -> bool
(** Whether the action installs a value — [Op.writes]. *)

val conflict_serializable : int -> history -> bool
(** [conflict_serializable n h]: conflict graph over [n] transactions —
    edges between same-variable pairs that do not commute per
    {!Commute.conflicts} (on read/write histories: the classical r-w,
    w-r and w-w pairs) — acyclic? *)

val view_equivalent : int -> history -> history -> bool
(** Same reads-from relation (reads-from-initial included) and same
    final writer per variable. *)

val view_serializable : int -> history -> bool
(** Brute force over the [n!] serial orders. Exponential (the problem is
    NP-complete); small [n] only. *)

val view_serializable_polygraph : int -> history -> bool
(** The classical polygraph decision procedure [Papadimitriou 78]: the
    history is augmented with an initial writer [T_0] and a final reader
    [T_f]; fixed arcs follow the reads-from relation, and for every
    reads-from pair [(T_i → T_j, x)] and every other writer [T_k] of [x]
    a {e choice} forces [T_k → T_i] or [T_j → T_k]. The history is
    view-serializable iff some choice assignment leaves the graph
    acyclic (backtracking with early cycle pruning; still exponential in
    the worst case — the problem is NP-complete — but far better than
    [n!] in practice). Agrees with {!view_serializable} (tested). *)

val final_state_equivalent : int -> history -> history -> bool
(** Equal final symbolic states when each write [w_ij(x)] writes an
    uninterpreted term in the values the transaction has read so far
    (dead computations erased: only the terms reachable from the final
    variable values matter). *)

val final_state_serializable : int -> history -> bool
(** Brute force over serial orders. *)

val csr_implies_vsr_witness : unit -> int * history
(** A classical witness history that is view-serializable but not
    conflict-serializable (needs blind writes). Returns
    [(n_transactions, history)]. *)

val vsr_not_fsr_witness : unit -> int * history
(** A history that is final-state-serializable but not
    view-serializable (a dead read). *)

val n_of_history : history -> int
(** Smallest transaction count covering every step of the history. *)

val pp : Format.formatter -> history -> unit
