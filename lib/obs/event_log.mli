(** A plain-text, line-oriented serialization of event traces — the
    recorded-trace artifact behind [ccopt trace --out] / [ccopt check
    --trace].

    The Chrome export ({!Trace_export}) is for humans in a trace viewer
    and is lossy (wait spans are merged, execution events drop their
    step index); this format is for machines and round-trips exactly:
    [parse (to_string ~dropped es) = Ok (es, dropped)] for every event
    list, including timestamps (printed with 17 significant digits).
    Each line is a timestamp and {!Event.to_string}: the event's name
    and its [k=v] fields ({!Event.fields}).

    Layout: a header line [# ccopt-events 1] (the trailing integer is
    the format version), a [# dropped N] line carrying the ring
    buffer's overwrite count (so a reader can tell a complete witness
    from a truncated one), then one event per line:

    {v
    # ccopt-events 1
    # dropped 0
    0 submitted tx=0 idx=0
    1 granted tx=0 idx=0
    2 executed tx=0 idx=0
    ...
    v} *)

val to_string : ?dropped:int -> (float * Event.t) list -> string
(** Render a trace (default [dropped] 0). Raises [Invalid_argument] on
    a string field holding whitespace, which could not be read back. *)

val parse : string -> ((float * Event.t) list * int, string) result
(** Parse a rendered trace back; [Error] describes the first offending
    line. Unknown event names and malformed fields are errors — a
    reader must not silently checker-pass a trace it misread. Likewise
    structural damage: a duplicate [# dropped] header (concatenated or
    hand-edited logs) and a final line without its newline (a log
    truncated mid-write) are positioned errors, not best-effort
    guesses. *)
