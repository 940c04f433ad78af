(** Equivalence of schedules and the structure of the schedule space.

    Two schedules are {b Herbrand-equivalent} when they produce the same
    final symbolic state — the same results under {e every}
    interpretation. This module gives the combinatorial view of that
    relation:

    - an {b elementary transformation} swaps two adjacent steps of
      different transactions on different variables (the schedule-space
      counterpart of the paper's Figure 4(b) homotopy moves); it
      provably preserves the Herbrand state;
    - two schedules are Herbrand-equivalent iff connected by elementary
      transformations (tested against {!Herbrand.equivalent});
    - [H] therefore partitions into equivalence classes, with the
      serializable schedules being exactly the classes containing a
      serial schedule. *)

val swappable : Syntax.t -> Schedule.t -> int -> bool
(** [swappable s h k]: may positions [k] and [k+1] be exchanged without
    changing the semantics — different transactions and different
    variables? *)

val neighbours : Syntax.t -> Schedule.t -> Schedule.t list
(** All schedules one elementary transformation away. *)

val connected : Syntax.t -> Schedule.t -> Schedule.t -> bool
(** Reachability through elementary transformations (BFS; schedule
    spaces explode, keep formats small). *)

val classes : Syntax.t -> Schedule.t list list
(** The partition of [H] into swap-connected classes, each class in
    first-seen enumeration order. *)

val class_count : Syntax.t -> int

val serializable_classes : Syntax.t -> int
(** Number of classes containing a serial schedule. In the paper's step
    model this is at most [n!] and the serializable schedules are the
    union of those classes. *)
