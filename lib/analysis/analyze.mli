open Core

(** The analyzer front end: one request in, one {!Report.t} out.

    This is what [ccopt analyze] drives; it is a plain library entry
    point so tests (and future CI gates) can run the same passes without
    going through the binary. *)

type request = {
  syntax : Syntax.t;
  schedule : int array option;
      (** interleaving to run the anomaly detector on *)
  policy : string option;  (** policy name to lint ({!policy_of_name}) *)
  certify : string option;
      (** scheduler name to certify ({!scheduler_of_name}) *)
  k : int;  (** micro-universe domain size for certification *)
}

val request :
  ?schedule:int array ->
  ?policy:string ->
  ?certify:string ->
  ?k:int ->
  Syntax.t ->
  request

val parse_syntax : string -> Syntax.t
(** ["xy,yx"] — comma-separated transactions, one single-character
    variable per step. Raises [Invalid_argument] on malformed input,
    whitespace included. *)

val parse_interleaving : string -> int array
(** ["0101"] — a digit per position naming the acting transaction. *)

val policy_of_name : string -> Syntax.t -> Locking.Policy.t
(** [2pl], [2pl'] (alias [2plprime]; the syntax's first variable
    distinguished, {!Locking.Two_phase_prime.on_first_var}), [preclaim],
    [mutex]. *)

val scheduler_of_name : Syntax.t -> string -> unit -> Sched.Scheduler.t
(** Fresh instances via {!Sched.Registry.find_exn} (any registered name
    or slug, case-insensitive); raises [Invalid_argument] listing
    {!Sched.Registry.names} on an unknown one. *)

val run : request -> Report.t
(** Runs the anomaly pass when [schedule] is present, the lock linter
    when [policy] is present, and the certifier when [certify] is
    present; a request selecting no pass yields a single informational
    diagnostic explaining the flags. Never raises on malformed
    schedules (reported as diagnostics); raises [Invalid_argument] on
    unknown policy/scheduler names. *)
