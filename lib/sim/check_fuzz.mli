open Core

(** Fuzzing differential between the schedulers and the black-box
    history checker ({!Analysis.Checker}).

    Four obligations, each independently falsifiable:

    - {e conformance}: every history committed by every registered
      scheduler (plus the sharded engine at several K) must check
      consistent at every level up to the engine's {e declared} level
      ({!Sched.Registry.entry.level}) — ["ser"] for the single-version
      schedulers and SSI, ["si"] for SI, ["causal"] for MVCC. The
      history is reconstructed from the recorded observability trace
      ({!history_of_events}): multi-version runs from their version
      events, single-version runs by replaying the committed schedule,
      which must itself agree with the driver's output (trace ≡ stats,
      extended to schedules);
    - {e anomaly realisability}: SI is {e not} serializable, and the
      sweep must prove it — at least one SI run over the typed
      read/update mix must be caught as a SER violation (write skew)
      with a witness that replays ([si_write_skews] > 0 is asserted by
      the tests);
    - {e sensitivity}: seeded mutations of the serializable histories
      (swapped reads, dropped writes, rewired reads) must be rejected,
      with a witness that replays;
    - {e oracle agreement}: wherever the brute-force Herbrand test
      applies (SER-level engines, pure-RMW syntaxes, small n), it and
      the checker must agree — and on exhaustive small universes they
      must agree on {e every} schedule, with per-level ground truth
      from {!Analysis.Checker.exists_order} on the smallest ones.

    Any broken obligation lands in [failures] as a labelled message;
    the tests assert the list is empty. The module also holds the one
    recording step ({!record}) and the bodies of [ccopt check] and
    [ccopt verify --twopc]. *)

type outcome = {
  runs : int;  (** scheduler runs checked end to end *)
  herbrand_agreed : int;  (** runs also confirmed by the oracle *)
  mutants_total : int;
  mutants_rejected : int;
  si_write_skews : int;
      (** runs of SI-level engines whose history the checker caught as
          a SER violation with a replaying witness — the positive
          control that write skew is reachable *)
  failures : string list;
}

val engines :
  Syntax.t ->
  (string * Analysis.Checker.level * (Obs.Sink.t -> Sched.Scheduler.t)) list
(** Every registry entry with its declared consistency level resolved
    via {!Analysis.Checker.level_of_name}, plus the sharded engine at
    K ∈ {1, 8} (K = 4 is the registry's own entry), declared
    serializable. *)

val history_of_events :
  label:string ->
  ?complete:bool ->
  Syntax.t ->
  (float * Obs.Event.t) list ->
  Analysis.History.t
(** Committed history of a recorded run. When version events are
    present ({!Obs.Fold.mv_history}), the history carries the values
    the multi-version engine actually served from its snapshots;
    otherwise the committed schedule is replayed under read-latest
    semantics ({!Analysis.History.of_steps}). Pass [~complete:false]
    when the ring dropped events; fold-detected truncation is folded
    in either way. Raises [Invalid_argument] when an event names a
    transaction [syntax] does not have, or when a replayed step is not
    in its transaction. *)

type recording = {
  stats : Sched.Driver.stats;
  events : (float * Obs.Event.t) list;
  dropped : int;  (** ring overwrites; 0 = complete trace *)
  history : Analysis.History.t;  (** {!history_of_events} of [events] *)
}

val record :
  ?capacity:int -> label:string -> seed:int -> Syntax.t ->
  (Obs.Sink.t -> Sched.Scheduler.t) -> recording
(** One recorded run, the step [ccopt check --scheduler] and {!sweep}
    share: the arrivals drawn from [seed], the engine driven into a ring
    of [capacity] events (default {!Trace_run.default_capacity}), and
    the committed history reconstructed, marked incomplete if the ring
    dropped events. *)

val sweep : ?seeds:int -> unit -> outcome
(** The seeded sweep (default 100 seeds). Workload mixes and sizes
    rotate deterministically per seed; every fourth seed uses the typed
    {!Workload.mixed} read/update mix that makes snapshot-isolation
    anomalies reachable. *)

val exhaustive : unit -> outcome
(** Every schedule of a fixed family of small universes, checked
    against the Herbrand oracle; [runs] counts schedules. *)

(** {1 The [ccopt check] and [ccopt verify --twopc] commands}

    Bodies of the executable's commands (see {!Trace_run.reply}). A usage
    error (an unknown scheduler, level or mutation, a missing
    [--syntax], an unreadable or malformed trace file, a schedule that is
    not of the syntax) exits 1 with its message, as does a violation. A
    syntax or schedule that does not parse raises [Invalid_argument]. *)

(** [ccopt check]'s flags, field for field. *)
type request = {
  syntax : string option;
  schedule : string option;
  scheduler : string;
  seed : int;
  capacity : int;
  trace : string option;
  levels : string option;
  mutate : string option;
  budget : int;
  bench : Check_bench.spec option;
  out : string option;
  json : bool;
}

val defaults : request
(** The flag defaults: no syntax, scheduler ["sgt"], seed 42. *)

val command : request -> Trace_run.reply
(** [ccopt check]: check a trace file, else a schedule, else a seeded
    run of the scheduler ({!record}), at [levels] (a scheduler run
    defaults to the ladder up to its declared level); exit 1 on a
    violation. With [bench], the {!Check_bench} report instead. *)

val twopc_universes :
  Sched.Twopc.config ->
  (int * (Sched.Twopc.fault list * Sched.Twopc.record
         * Sched.Twopc.violation list) list) list
(** The single-fault universes at 1, 2 and 3 participants, seed 1. *)

val twopc_grid : unit -> (float * float * Sched.Twopc.totals) list
(** The fault matrix: crash x slow rate over 0, 0.2 and 0.5, each 20
    three-shard commits through one seeded service. *)

val verify_twopc : unit -> Trace_run.reply
(** [ccopt verify --twopc]: AC1-AC5 over {!twopc_universes} of the
    default config and the service accounting of {!twopc_grid}, each
    violation's witness on stderr. *)
