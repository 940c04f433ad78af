(** Interleavings of [n] sequences — the schedule space [H] of the paper.

    A transaction system with format [(m_1, ..., m_n)] admits exactly
    [(Σ m_i)! / Π (m_i!)] schedules: the permutations of all steps that
    preserve each transaction's internal order. An interleaving is
    represented as an [int array] whose [k]-th entry names the transaction
    whose next step executes at position [k]; the [j]-th occurrence of
    transaction [i] is its step [j]. *)

val count : int array -> int
(** [count fmt] is the multinomial [(Σ fmt_i)! / Π fmt_i!], the size of
    [H] for that format. Raises [Invalid_argument] on overflow or a
    negative entry. *)

val iter : int array -> (int array -> unit) -> unit
(** [iter fmt f] enumerates every interleaving of the format in
    lexicographic order of transaction indices. The array passed to [f]
    is reused; copy it to retain. *)

val all : int array -> int array list
(** [all fmt] lists every interleaving. Intended for small formats;
    raises [Invalid_argument] when {!count} exceeds [2_000_000]. *)

val fold : int array -> ('a -> int array -> 'a) -> 'a -> 'a
(** [fold fmt f init] folds [f] over all interleavings. The array is
    reused between calls. *)

val rank : int array -> int array -> int
(** [rank fmt il] is the lexicographic index of interleaving [il] for
    format [fmt]. Inverse of {!unrank}. *)

val unrank : int array -> int -> int array
(** [unrank fmt r] is the [r]-th (0-based lexicographic) interleaving.
    Raises [Invalid_argument] if [r] is out of range. *)

val random : Random.State.t -> int array -> int array
(** [random st fmt] draws an interleaving uniformly at random (by
    sequentially choosing each position proportionally to the remaining
    completions).

    Each position calls [Random.State.int st left] once, [left] the
    steps not yet placed, and takes the smallest transaction whose
    prefix count of remaining steps exceeds the draw. So the result,
    and the state [st] is left in, are the same function of [st] as the
    inverse-CDF scan over the remaining counts, and seeded callers draw
    the same arrivals whichever way it is computed. The counts live in
    a Fenwick tree padded to a power of two, descended without a
    data-dependent branch: a draw costs O(log n), a whole interleaving
    O(N log n) for [N = Σ fmt_i] steps, and the call allocates the
    output and the tree and nothing per position. *)

val is_valid : int array -> int array -> bool
(** [is_valid fmt il] checks that [il] uses transaction [i] exactly
    [fmt.(i)] times and mentions no other index. *)

val serial : int array -> int array -> int array
(** [serial fmt order] is the serial interleaving executing whole
    transactions in the order given by permutation [order]. *)

val is_serial : int array -> int array -> bool
(** [is_serial fmt il] is [true] iff [il] is a concatenation of complete
    transactions. *)
