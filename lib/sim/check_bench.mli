(** Checker-throughput benchmark: events/sec of {!Analysis.Checker} per
    isolation level on a large {!Analysis.History.generate} history.

    The generated history is serializable by construction, so every
    verdict must come back [Consistent] — a row is throughput {e and}
    correctness evidence at once; any other verdict fails the run.
    Surfaced as [ccopt check --bench] and as bench experiment C1; the
    JSON form is the schema of [BENCH_check.json]. *)

type spec = {
  txns : int;
  steps : int;      (** RMW steps per transaction; [2 * txns * steps] events *)
  n_vars : int;
  seed : int;
  levels : Analysis.Checker.level list;
}

type row = {
  level : string;
  events : int;
  seconds : float;
  events_per_sec : float;
}

val default : spec
(** The committed-trajectory configuration: 125k transactions of 4
    steps on 40k variables over 8 sessions — one million events. *)

val smoke : spec
(** Tiny configuration for the CI smoke (8k events). Both presets run
    8 sessions. *)

val run : spec -> row list
(** One row per level, in {!Analysis.Checker.levels} order restricted
    to [spec.levels]. Raises [Failure] if any verdict is not
    [Consistent]. *)

val to_json : spec -> row list -> Obs.Json.t
(** [{"schema_version", "benchmark", "unit", "config", "results":
    [row...]}] — the schema of [BENCH_check.json], rendered with
    {!Obs.Json.pretty}. *)

val pp_rows : Format.formatter -> row list -> unit
