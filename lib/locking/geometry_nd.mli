
(** The progress-space geometry in arbitrary dimension.

    Section 5.3's pictures are two-dimensional, but the paper notes that
    "the exact condition for a correct locking policy is somewhat less
    trivial for high dimensional cases". This module lifts the grid
    analysis to [n] locked transactions: points are progress vectors,
    the forbidden region is where two transactions hold the same lock,
    and safety/reachability/deadlock are computed by dynamic programming
    over the product grid (sizes multiply — keep the systems small).

    Cross-validated against the 2-D {!Geometry} on two-transaction
    systems and against {!Locked.legal} on interleavings (tests); used
    to exhibit the three-way cyclic deadlock that no pairwise analysis
    sees. *)

type t

val analyse : Locked.t -> t
(** Raises [Invalid_argument] if the grid would exceed 2 million
    points. *)

val dims : t -> int array
(** The locked transaction lengths [L_1 .. L_n]. *)

val forbidden : t -> int array -> bool
val safe : t -> int array -> bool
(** The final corner is reachable from here by monotone moves avoiding
    the forbidden region. *)

val reachable : t -> int array -> bool
val deadlock : t -> int array -> bool
val deadlock_points : t -> int array list
val has_deadlock : t -> bool

val interleaving_legal : t -> int array -> bool
(** Geometric legality: agrees with {!Locked.legal} (tested). *)
