(** The geometry of locking (Section 5.3, Figures 3 and 4).

    For a locked system of {e two} transactions, any joint state of
    progress is a lattice point [(p1, p2)] with [0 ≤ p_i ≤ L_i] ([p_i] =
    locked steps of [T_{i+1}] already executed). Locking forbids the
    rectangular regions where both transactions would hold the same lock
    ("blocks"). A schedule is a monotone staircase path from the origin
    [O = (0,0)] to [F = (L1, L2)]; it is legal iff it avoids every
    forbidden point.

    The module computes the forbidden blocks, the safe/unsafe/deadlock
    regions (region [D] of Figure 3), the side a path passes each block
    on, the homotopy (elementary-transformation) relation of Figure 4(b),
    and the geometric serializability and policy-correctness criteria of
    Figures 4(c) and 4(d). *)

type t
(** The analysed progress space of a two-transaction locked system. *)

type side = Below | Above
(** [Below]: the path passes on [T1]'s side (T1 clears the block first —
    right-then-up); [Above]: on [T2]'s side. *)

type rect = {
  x_lo : int;
  x_hi : int;  (** inclusive progress interval of T1 holding the lock *)
  y_lo : int;
  y_hi : int;  (** inclusive progress interval of T2 holding the lock *)
  lock : Locked.lock_var;
}

val analyse : Locked.t -> t
(** Requires exactly two locked transactions. *)

val extent : t -> int * int
(** [(L1, L2)]. *)

val blocks : t -> rect list
(** All forbidden rectangles (one per lock variable and pair of hold
    intervals), in deterministic order. *)

val forbidden : t -> int * int -> bool

val safe : t -> int * int -> bool
(** From this point, [F] is reachable by a monotone path avoiding all
    blocks. *)

val reachable : t -> int * int -> bool
(** The point is reachable from [O] by a monotone legal path. *)

val deadlock : t -> int * int -> bool
(** The point is in region [D]: reachable, not forbidden, but [F] cannot
    be reached any more. *)

val deadlock_region : t -> (int * int) list

val has_deadlock : t -> bool

(** {1 Paths}

    A path is the move sequence of a locked interleaving: entry [k] is
    the transaction (0 or 1) moving at position [k]. *)

val path_of_interleaving : int array -> bool array
(** [true] = move right (T1). *)

val path_points : bool array -> (int * int) list
(** All lattice points visited, origin first. *)

val path_legal : t -> bool array -> bool
(** Avoids every forbidden point. Agrees with {!Locked.legal} (tested). *)

val sides : t -> bool array -> (rect * side) list

val geometric_serializable : t -> bool array -> bool
(** Figure 4(c)'s criterion: the projected schedule is serializable iff
    the path does {e not} separate the data blocks — all blocks whose
    lock variable is a base variable of the system lie on the same side.
    (Requires the locked system to be well-formed; agrees with
    {!Conflict.serializable} on projections — tested.) *)

val elementary_moves : t -> bool array -> bool array list
(** All legal paths obtained by one elementary transformation
    (transposing two adjacent opposite moves, Figure 4(b)). *)

val homotopic : t -> bool array -> bool array -> bool
(** Connected by a chain of elementary transformations through legal
    paths. BFS over paths; small grids only. *)

val serial_paths : t -> bool array * bool array
(** The two boundary paths [O P1 F] (all of T1 then T2) and [O P2 F]. *)

val blocks_connected : t -> bool
(** Figure 4(d)'s policy-correctness criterion: the union of blocks is
    connected (as overlapping-or-touching rectangles), so no legal path
    can separate them. 2PL guarantees it via the common phase-shift
    point [u]. *)

val common_point : t -> (int * int) option
(** A point contained in {e every} block, if one exists — 2PL's point
    [u] whose coordinates are the two phase shifts. *)
