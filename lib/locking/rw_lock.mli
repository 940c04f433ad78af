open Core

(** Two-phase locking with shared/exclusive modes, for the read/write
    step model (the [Eswaran et al. 76] setting the paper builds on).

    In the refined model of {!Core.Rw_model} a read only needs a
    {e shared} lock — concurrent readers are compatible — while a write
    needs an {e exclusive} one. This module implements:

    - the mode lattice and compatibility matrix;
    - the RW-2PL transformation of a transaction's action list into a
      locked program (shared lock before the first read, upgrade to
      exclusive before the first write, all releases after the last
      acquisition — two-phase);
    - which interleaved histories the locked programs admit, and the
      zero-delay ([passes]) check, both on {!Lrs}'s lock table and
      machine, the ones {!Locked} and [Sched.Tpl_sched] run;
    - the classical correctness theorem, checked here empirically:
      every admitted history is conflict-serializable.

    The gain over exclusive-only locking is measured in bench X2:
    read-heavy workloads admit strictly more histories because readers
    no longer exclude each other. *)

type mode = Lrs.mode = Shared | Exclusive

type step =
  | Acquire of Names.var * mode
  | Release of Names.var
  | Do of Rw_model.step

type program = step array

val transform : int -> Rw_model.action list -> program
(** RW-2PL for one transaction: acquire just before first use at the
    strongest mode ever needed from that point on is {e not} assumed —
    instead the lock is taken [Shared] at the first read and {e
    upgraded} in place to [Exclusive] at the first write (if any);
    releases come after the transaction's last acquisition, each right
    after the variable's last access (two-phase). *)

val programs : Rw_model.action list list -> program array
(** Transform every transaction. *)

val legal : program array -> int array -> bool
(** Is an interleaving of the locked programs admitted by the lock
    table? (No incompatible grant; upgrades wait for other sharers.) *)

val outputs : program array -> Rw_model.history list
(** All projections of admitted interleavings, deduplicated. Small
    systems only. *)

val passes : program array -> Rw_model.history -> bool
(** Zero-delay admission of a history ({!Lrs.passes}): locks acquired
    just in time before each action, releases eager, like
    {!Locked.passes}. *)

val is_two_phase : program -> bool

val exclusive_only : int -> Rw_model.action list -> program
(** The same placement but every lock exclusive — the baseline showing
    what mode-awareness buys. *)

val pp_step : Format.formatter -> step -> unit
val pp_program : Format.formatter -> program -> unit
