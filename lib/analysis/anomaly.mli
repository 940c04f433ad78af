open Core

(** The anomaly detector.

    Takes a schedule of a transaction system, extracts a {e minimal}
    cycle from its conflict graph (shortest cycle, ties broken towards
    the smallest transaction index) and classifies the anomaly in the
    read/write model of {!Core.Rw_model}: the paper's atomic
    read-modify-write steps are expanded into a read immediately
    followed by a write, and the classical anomaly patterns are matched
    on the resulting history. The conflict-graph verdict is
    cross-validated against the brute-force Herbrand serializability
    test (§4.2) — in this step model the two provably coincide, and the
    detector re-checks that on every run.

    Genuine read/write histories (with blind writes and pure reads,
    where the classes [CSR ⊊ VSR ⊊ FSR] separate) are analyzed by
    {!check_history}. *)

type classification =
  | Lost_update of Names.var
      (** A transaction writes a variable between another's read of it
          and that transaction's subsequent write — the first update is
          clobbered unseen. Needs a genuine r/w gap; cannot arise from
          atomic RMW steps. *)
  | Non_repeatable_read of Names.var
      (** A transaction reads the same variable twice with a foreign
          write in between. *)
  | Write_skew of Names.var * Names.var
      (** Two transactions read each other's write targets before
          either writes: anti-dependency edges both ways on two
          distinct variables. *)
  | Dirty_read of Names.var
      (** A transaction reads a value written by a transaction that is
          still active (performs further actions afterwards) — the
          dirty-read shape; there are no aborts in this model, hence
          "shaped". *)
  | Serialization_cycle
      (** A conflict cycle not matching a more specific pattern
          (e.g. any cycle through three or more transactions). *)

val expand : Syntax.t -> Schedule.t -> Rw_model.history
(** Each atomic step [T_ij] on [x] becomes [r(x); w(x)] — adjacent, so
    no foreign action ever separates a step's read from its write. *)

val minimal_cycle : Digraph.t -> int list option
(** A shortest directed cycle, rotated to start at its smallest vertex;
    among equally short cycles the one through the smallest vertices.
    [None] iff acyclic. *)

val check : Syntax.t -> Schedule.t -> Report.diagnostic list
(** The full pass: serializability verdict (with a serial-order or
    minimal-cycle witness), anomaly classification, and the Herbrand
    cross-validation (skipped with an informational diagnostic beyond 6
    transactions — the brute-force test enumerates [n!] serial
    schedules). *)

val check_history : int -> Rw_model.history -> Report.diagnostic list
(** Same pass over a genuine read/write history; the cross-validation
    here is the polygraph view-serializability test, and a
    conflict-cycle finding is downgraded with an informational note
    when the history is view-serializable anyway (the [CSR ⊊ VSR]
    gap). *)
