(** The observability vocabulary: one structured event per interesting
    moment of a request's lifecycle, plus scheduler-internal events.

    The request lifecycle is
    [Submitted -> (Delayed ->)* Granted -> Executed -> ... -> Committed]
    with [Aborted]/[Restarted] interposed when a scheduler or the
    deadlock resolver kills an incarnation. Scheduler-internal events
    (SGT conflict-edge additions and cycle refusals, lock-respecting
    acquire/release and wound decisions, timestamp-watermark refusals)
    share the stream so a single trace tells the whole story.

    Events carry no timestamps; the {!Sink} stamps them with the clock
    of whatever component emits (driver event counter or simulated
    time). *)

type abort_reason =
  | Deadlock        (** victim named while resolving a stall *)
  | Scheduler_abort (** the scheduler answered a request with [Abort] *)

type twopc_payload =
  | Prepare           (** coordinator asks a participant to vote *)
  | Vote of bool      (** participant's vote ([true] = yes, forced-logged) *)
  | Decision of bool  (** coordinator's outcome ([true] = commit) *)
  | Ack               (** participant acknowledged a commit decision *)
  | Decision_req      (** in-doubt participant asks for the outcome *)
      (** Payload of a two-phase-commit message, as recorded in
          {!Twopc_sent}/{!Twopc_delivered}. *)

type t =
  | Submitted of { tx : int; idx : int }  (** request entered the system *)
  | Delayed of { tx : int; idx : int }
      (** a [Delay] verdict — re-attempts of a parked request emit one
          event each, mirroring the driver's delay counter *)
  | Granted of { tx : int; idx : int }
  | Executed of { tx : int; idx : int }   (** the granted step finished *)
  | Committed of { tx : int }             (** final step executed *)
  | Aborted of { tx : int; reason : abort_reason }
  | Restarted of { tx : int }             (** new incarnation begins *)
  | Edge_added of { src : int; dst : int }
      (** SGT admitted a conflict edge [src -> dst] *)
  | Cycle_refused of { tx : int; idx : int }
      (** SGT refused a request because it would close a cycle (fresh
          graph searches only; cached re-verdicts emit {!Delayed} via
          the driver) *)
  | Commute_pass of { tx : int; idx : int; skipped : int }
      (** the semantic scheduler granted a step without serializing
          against [skipped] other transactions that had live accesses to
          the same variable — every such access commutes with the
          step's op, so no conflict edge (and no coordination) was
          needed. [skipped] counts distinct transactions, however many
          commuting accesses each has; a transaction with any access
          that conflicts with the step is serialized against, not
          counted. *)
  | Lock_acquired of { tx : int; lock : string }
  | Lock_released of { tx : int; lock : string }
  | Wound of { victim : int }
      (** a lock scheduler named a wait-for-cycle victim *)
  | Ts_refused of { tx : int; idx : int }
      (** timestamp-ordering watermark refusal (leads to an abort) *)
  | Shard_routed of { tx : int; idx : int; shard : int }
      (** the sharded engine routed a non-cached request for [tx.idx]
          to shard [shard]; a retry answered from the delay cache, whose
          refusal stands until a transaction on its witness path aborts,
          stays silent *)
  | Snapshot_taken of { tx : int; ts : int }
      (** a multi-version engine pinned [tx]'s snapshot at commit
          timestamp [ts] (its first step; re-emitted after restarts) *)
  | Version_read of { tx : int; var : string; value : int }
      (** [tx] read [value] for [var] — its own write buffer first,
          else the newest committed version at or before its snapshot *)
  | Version_installed of { tx : int; var : string; value : int }
      (** [tx] buffered a fresh version of [var]; emitted at the step
          (program order) though it becomes visible at commit *)
  | Ww_refused of { tx : int; var : string }
      (** first-committer-wins: an overlapping committed writer of
          [var] forces [tx] to abort (leads to an abort) *)
  | Pivot_refused of { tx : int; cyclic : bool }
      (** SSI found [tx] pivot of a Fekete dangerous structure
          (rw-antidependency in and out); [cyclic] reports whether the
          shadow serialization graph actually closed a cycle — [false]
          marks a false-positive abort *)
  | Twopc_sent of { tx : int; src : int; dst : int; msg : twopc_payload }
      (** a 2PC message for [tx]'s commit round left node [src] towards
          node [dst] (participants are numbered from 0; the coordinator
          is the highest node id of the round's cluster) *)
  | Twopc_delivered of { tx : int; src : int; dst : int; msg : twopc_payload }
      (** the message arrived and was processed by [dst] (messages to
          crashed nodes are dropped and emit no delivery) *)
  | Twopc_decided of { tx : int; node : int; commit : bool }
      (** [node] durably decided [tx]'s outcome — every node of a round
          emits at most one, so conflicting values are an AC1/AC2
          violation on their face *)
  | Twopc_timeout of { tx : int; node : int; timer : string }
      (** a protocol timer fired at [node]; [timer] is one of
          ["prepare"], ["vote"], ["decision"], ["ack"] *)
  | Node_crashed of { tx : int; node : int }
      (** [node] crashed during [tx]'s commit round, losing volatile
          state and pending timers (its persistent log survives) *)
  | Node_recovered of { tx : int; node : int }
      (** [node] restarted and ran presumed-abort recovery from its log *)

val tx : t -> int option
(** The transaction a lifecycle event belongs to; [None] for
    {!Edge_added}, {!Wound}, {!Shard_routed} and the 2PC/crash events,
    which concern the scheduler itself (they export on the scheduler
    track, track 0). The multi-version events all carry their
    transaction. *)

type field =
  | Tx of int   (** a transaction id: 0-based, remapped by {!map_tx} *)
  | Int of int  (** any other integer: step index, shard, node, timestamp *)
  | Str of string  (** a name or an enumerated value *)

val fields : t -> string * (string * field) list
(** The one description of every constructor: its name and its named
    fields, in print order. Every other view of an event is derived
    from [fields] and {!of_fields}: the text form ({!pp}), the event
    log ({!Event_log}), the parallel engine's id remap ({!map_tx}) and
    the Chrome instants ({!Trace_export}). To add an event or a payload
    field, add one row here and one in {!of_fields}; nothing else
    changes. *)

val of_fields : string -> (string -> string option) -> (t, string) result
(** [of_fields name get] is the inverse of {!fields}: it rebuilds the
    event called [name] from its fields' printed values, read with
    [get]. Errors name the problem: ["unknown event ..."], ["missing
    field ..."], ["field ...: bad integer ..."] (or bad boolean,
    payload, abort reason). *)

val map_tx : (int -> int) -> t -> t
(** [map_tx f ev] maps every {!Tx} field of [ev] through [f] and leaves
    the rest alone. *)

val to_string : t -> string
(** The event as [name k=v ...], as one line of the event log prints
    it after its timestamp; transaction ids are 0-based. Raises
    [Invalid_argument] when a {!Str} field holds whitespace, which the
    log could not read back. *)
