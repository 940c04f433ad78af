(** Chrome-trace-format ([trace_event]) export, loadable in
    [about://tracing] / Perfetto.

    Each transaction gets a track ([tid = tx + 1]). Waiting periods
    render as [B]/[E] duration pairs named ["wait"], granted executions
    as ["exec"] pairs, the other lifecycle events as instants.
    Scheduler-internal events are instants named and keyed as in the
    event log ({!Event.fields}, transaction ids 1-based), on their
    transaction's track, or on track 0 when {!Event.tx} is [None]. The
    exporter guarantees (and the tests check): every [B] has a matching
    [E] with the same name on the same track, and timestamps are
    non-decreasing per track. *)

type value = Int of int | Str of string

type entry = {
  name : string;
  cat : string;
  ph : char;  (** 'B', 'E', 'i' (instant) or 'M' (metadata) *)
  ts : float;
  pid : int;
  tid : int;
  args : (string * value) list;
}

val entries : (float * Event.t) list -> entry list
(** The structured form: metadata (track names) first, then the trace,
    stable-sorted by timestamp. Unclosed spans (a trace cut short by a
    ring buffer) are closed at the final timestamp. *)

val chrome : (float * Event.t) list -> string
(** [entries] rendered as the JSON object
    [{"displayTimeUnit": ..., "traceEvents": [...]}]. Deterministic:
    equal traces render byte-identically. *)

val chrome_of_entries : entry list -> string
