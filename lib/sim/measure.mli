open Core

(** Performance measurement: the Section 6 quantities.

    The probability that no step has to wait is [|P| / |H|]; for small
    formats this is computed exactly by enumeration, and estimated by
    Monte-Carlo otherwise. Average delay/waiting/restart counts come
    from driving each scheduler over random arrival histories. *)

type row = {
  name : string;
  zero_delay_fraction : float;  (** fraction of histories passed intact *)
  avg_delays : float;
  avg_waiting : float;
  avg_restarts : float;
  avg_deadlocks : float;
  avg_grants : float;
  avg_sched_span : float;
      (** §6 decomposition (event-clock units, per history, summed over
          transactions): time attributed to scheduling … *)
  avg_wait_span : float;   (** … to being parked by [Delay] verdicts … *)
  avg_exec_span : float;   (** … and to executing granted steps. *)
}

val sample :
  name:string ->
  (unit -> Sched.Scheduler.t) ->
  fmt:int array ->
  samples:int ->
  seed:int ->
  row
(** Monte-Carlo over uniformly random arrival histories. Each run is
    traced into an in-memory sink and its event stream folded into the
    §6 span decomposition ([avg_*_span]). Raises [Invalid_argument] if
    [samples < 1]. *)

val compare_schedulers :
  (string * (unit -> Sched.Scheduler.t)) list ->
  fmt:int array ->
  samples:int ->
  seed:int ->
  row list

val standard_suite :
  ?sink:Obs.Sink.t -> Syntax.t -> (string * (unit -> Sched.Scheduler.t)) list
(** The {!Sched.Registry.standard} suite over a syntax — serial, 2PL,
    2PL′(first variable), preclaim, SGT, TO and sharded (K = 4). With a
    [sink], every non-serial scheduler emits its internal events
    (edges, shard routings, locks, wounds, refusals) there. *)

val pp_rows : Format.formatter -> row list -> unit
(** An aligned text table. *)
