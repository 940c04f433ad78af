open Core

(** Structured diagnostics shared by every analysis pass.

    A diagnostic pins a finding to a {e rule} (a stable slug such as
    ["anomaly/write-skew"] or ["lock/deadlock"]), a severity, a location
    (transaction indices and step ids of the analyzed system), an
    optional machine-checkable {e witness}, and a human explanation.
    Reports render either as text or as JSON (schema documented in
    README.md); the witness payloads are typed so tests can {e replay}
    them against the semantics instead of trusting the analyzer. *)

type severity = Error | Warning | Info

type witness =
  | Cycle of int list
      (** Transaction indices of a conflict-graph cycle, in cycle order
          (the edge from the last back to the first is implicit). *)
  | Progress of int array * int array
      (** A progress vector in the locked system's n-D grid, together
          with a legal interleaving prefix that reaches it. *)
  | History of Schedule.t
      (** A complete schedule of the base system. *)
  | Locked_run of int array
      (** A complete legal interleaving of a locked system (transaction
          indices, lock steps included). *)
  | Steps of Names.step_id list
      (** Specific steps of the base system. *)

type diagnostic = {
  rule : string;
  severity : severity;
  txs : int list;                (** transactions involved, sorted *)
  steps : Names.step_id list;    (** steps involved, schedule order *)
  witness : witness option;
  message : string;
}

type t = {
  target : string;        (** description of the analyzed object *)
  diagnostics : diagnostic list;
}

val diagnostic :
  rule:string ->
  severity:severity ->
  ?txs:int list ->
  ?steps:Names.step_id list ->
  ?witness:witness ->
  string ->
  diagnostic

val make : target:string -> diagnostic list -> t

val count : severity -> t -> int

val errors : t -> int

val find : string -> t -> diagnostic option
(** First diagnostic with the given rule slug, if any. *)

val all : string -> t -> diagnostic list
(** Every diagnostic with the given rule slug. *)

val pp : Format.formatter -> t -> unit
(** Text rendering: a header line, one block per diagnostic, a summary
    tail ([N errors, M warnings, K infos]). *)

val schema_version : int
(** Version stamp carried as ["schema_version"] by every
    machine-readable report ([ccopt analyze], [ccopt trace],
    [ccopt check]); bumped when a consumer-visible key changes. *)

val to_json : t -> string
(** JSON rendering; see the [ccopt analyze] section of README.md for the
    schema. Deterministic key order, no trailing whitespace. *)
