(** Intrusive FIFO queue over a fixed universe [0 .. n-1].

    O(1) membership test, O(1) enqueue at the tail, O(1) removal of an
    arbitrary element, FIFO iteration. An element is present at most
    once; [push] on a present element and [remove] on an absent one are
    no-ops. Two link arrays and nothing else: an element is present iff
    it has a predecessor or is the head. Backs the driver's
    blocked-transaction queue. *)

type t

val create : int -> t
(** [create n] is an empty queue over elements [0 .. n-1]. *)

val mem : t -> int -> bool
val is_empty : t -> bool
val length : t -> int

val push : t -> int -> unit
(** Enqueue at the tail; no-op if already present. *)

val remove : t -> int -> unit
(** Remove wherever it sits; no-op if absent. *)

val head : t -> int
(** The head element, or [-1] when empty. Allocation-free cursor entry
    point; pair with {!next} to walk the queue. *)

val next : t -> int -> int
(** The element after [i] in FIFO order, or [-1] at the tail. Only
    meaningful while [i] is present; reads the link in place. *)

val to_list : t -> int list
(** Elements in FIFO order (head first). Fresh list, safe to iterate
    while the queue is mutated. *)
