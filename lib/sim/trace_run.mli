open Core

(** The shared tracing pipeline behind [ccopt trace] and the trace test
    suite: drive the standard scheduler suite over one seeded arrival
    stream, each scheduler recording into its own ring buffer, and
    derive everything the trace proves — folded counters (checked
    against the driver's stats), the §6 span decomposition, the waiting
    histogram and the Chrome-trace rendering.

    Everything here is a deterministic function of the spec, so the CLI
    and the tests produce byte-identical artifacts in-process. *)

type spec = {
  label : string;       (** the syntax as the user wrote it (for reports) *)
  syntax : Syntax.t;
  seed : int;
  capacity : int;       (** ring-buffer capacity per scheduler *)
  samples : int;        (** Monte-Carlo samples for the zero-delay fraction *)
  only : string list;   (** scheduler names to keep; [[]] = whole suite *)
}

val default_capacity : int
(** [65536] — comfortably above any trace these workloads produce. *)

type run = {
  name : string;
  slug : string;                    (** filename-safe form of [name] *)
  n : int;                          (** transactions in the syntax *)
  stats : Sched.Driver.stats;
  events : (float * Obs.Event.t) list;
  dropped : int;                    (** ring overwrites; 0 = complete trace *)
  counters : Obs.Fold.counters;
  totals : Obs.Span.breakdown;      (** §6 decomposition summed over txs *)
  wait_hist : Obs.Hist.t;
  zero_delay_fraction : float;
  chrome : string;                  (** Chrome trace_event JSON *)
}

val execute : spec -> run list
(** One traced driver run per selected scheduler, all over the same
    arrival stream. [only] resolves through {!Sched.Registry.find} (so
    any registered scheduler round-trips, not just the standard suite);
    raises [Invalid_argument] listing {!Sched.Registry.names} on an
    unknown name. *)

val mismatches : run -> string list
(** The trace-vs-stats differential: every counter the fold recovers
    that disagrees with the driver's statistics, as diagnostics.
    [[]] means the trace is a faithful witness (always the case on a
    complete trace — enforced by the tests). Truncated traces
    ([dropped > 0]) are not checkable and report [[]]. *)

val pp_summary : Format.formatter -> run list -> unit
(** The §6 summary table plus one waiting-histogram line per
    scheduler. Deterministic — golden-file tested. *)

val json_summary : spec -> run list -> string
(** The same report as a deterministic JSON object. *)

(** {1 The [ccopt trace] command}

    Each command body ([command] here, {!Check_fuzz.command} and
    {!Check_fuzz.verify_twopc}) maps a request to the text for stdout
    and stderr and the exit code; the executable only parses flags and
    prints, and the tests call the same functions. *)

type reply = { stdout : string; stderr : string; code : int }

val reply_of : (reply, string) result -> reply
(** [Error msg] is a usage error: [msg] on stderr, exit 1. *)

val registry_entry : string -> (Sched.Registry.entry, string) result
(** The entry of that name, or the usage error that lists the names. *)

val output_report :
  what:string -> string option -> [ `Text of string | `Json of Obs.Json.t ] ->
  reply
(** Print a report, or with [Some file] write it there and say so (exit
    1 if the file cannot be written). A JSON report written over an
    existing file keeps the file's top-level members it lacks, and must
    parse back (else exit 1). *)

type request = { spec : spec; out : string option; json : bool }

val command : request -> reply
(** [ccopt trace]: {!execute} after checking [spec.only] against the
    registry (exit 1 on an unknown name), exit 1 on a trace-vs-stats
    mismatch or a malformed Chrome trace, else write
    PREFIX-<slug>.json and .events for [out = Some PREFIX] (exit 1 at
    the first file that cannot be written) and print the summary. *)
