open Core

(** Variable partitioning for the sharded scheduling engine.

    A partition assigns every variable of a syntax to one of [shards]
    shards by a deterministic hash, and precomputes everything the
    {!Sharded} engine needs on its integer-only hot path: the shard of
    every variable id, each transaction's shard bitmask, shard
    membership lists with shard-local ids, and a dense numbering of the
    {e cross-shard} transactions (those touching two or more shards) for
    the coordinator graph. It costs per variable and per membership,
    never per step: a step's shard is [shard_of_var.(ids.(tx).(idx))],
    read through the syntax's own id rows.

    Because a conflict edge joins two accessors of the {e same}
    variable, every conflict edge lives in exactly one shard; a
    transaction whose variables all hash to one shard (one bit set in
    its [mask]) has all its edges there and needs no cross-shard
    coordination at all — the coordination-avoidance reading of the
    paper's conflict geometry. *)

type t = {
  shards : int;  (** number of shards K, [1 <= K <= 62] *)
  n : int;  (** number of transactions *)
  shard_of_var : int array;
      (** [shard_of_var.(v)]: the shard owning variable id [v]
          ({!Core.Syntax.var_ids}) *)
  ids : int array array;
      (** the syntax's own variable-id rows ({!Core.Syntax.var_ids}),
          kept, not copied: step [idx] of [tx] is in shard
          [shard_of_var.(ids.(tx).(idx))] *)
  mask : int array;
      (** per-transaction bitmask of touched shards (bit [s] set iff the
          transaction accesses a variable of shard [s]); [0] for an
          empty transaction *)
  n_cross : int;  (** number of cross-shard transactions *)
  cross_id : int array;
      (** dense coordinator-local id of a cross-shard transaction
          (ascending in the global id); [-1] otherwise *)
  members : int array array;
      (** [members.(s)]: global ids of the transactions touching shard
          [s], ascending — the shard-local id space *)
  slot : int array;
      (** [tx]'s slots in [local] are [slot.(tx) .. slot.(tx + 1) - 1],
          one per shard it touches, in ascending shard order *)
  local : int array;  (** per membership slot, its shard-local id *)
}

val shard_of_var : shards:int -> Names.var -> int
(** The deterministic variable-to-shard hash ([Hashtbl.hash mod K]). *)

val make : syntax:Syntax.t -> shards:int -> t
(** Reads the syntax's variable ids ({!Core.Syntax.var_ids}): each
    distinct variable's name is hashed once, for its shard, and every
    per-transaction field is filled by counting loops over the id rows,
    with nothing allocated per step. Raises
    [Invalid_argument] unless [1 <= shards <= 62] (shard sets are
    represented as bits of one OCaml [int]). *)

val local_id : t -> int -> int -> int
(** [local_id p s tx]: [tx]'s shard-local id in shard [s], or [-1] if it
    does not touch [s]. A single-shard [tx]'s lookup is O(1). *)

val cross_fraction : t -> float
(** Fraction of non-empty transactions that are cross-shard. *)
