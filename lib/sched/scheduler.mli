open Core

(** Online schedulers.

    The paper models a scheduler as a mapping from request histories to
    correct schedules, realised operationally: step-execution requests
    arrive one at a time (in each transaction's program order) and the
    scheduler must {e grant} the step now, {e delay} it (it will be
    retried after other grants), or {e abort} the requesting transaction
    (it restarts from its first step — how timestamp and
    optimistic-flavoured schedulers resolve conflicts).

    A scheduler instance is stateful; [attempt] must be free of
    observable side effects so the driver can poll delayed requests.

    {2 Constructor convention}

    Every scheduler module exposes a single constructor of the shape

    {[ val create : ?sink:Obs.Sink.t -> ... -> unit -> Scheduler.t ]}

    with the optional observability sink {e before} the labeled
    arguments and a trailing [unit]. The [unit] is not decoration: an
    optional argument is only "erased" (defaulted) when it is followed
    by a positional or [unit] parameter at the application site —
    without it, [create ~syntax] would be a partial application still
    waiting for [?sink], and OCaml's warning 16 flags the unerasable
    optional. Omitting the sink yields an untraced scheduler
    ([Obs.Sink.null], zero-cost: emission sites are guarded by
    {!Obs.Sink.on}). This rule is stated once here; the per-module
    [.mli]s document only which events each scheduler emits. *)

type response = Grant | Delay | Abort

type t = {
  name : string;
  attempt : Names.step_id -> response;
      (** Decide about the next step of a transaction. *)
  commit : Names.step_id -> unit;
      (** Record that the step was granted (always directly after an
          [attempt] that returned [Grant]). *)
  on_abort : int -> unit;
      (** The transaction restarts: discard all bookkeeping about it. *)
  victim : int list -> int option;
      (** Deadlock resolution: given the transactions blocked in a
          stall (a seniority walk, youngest first), choose one to abort
          ([None] = scheduler cannot resolve; the driver then fails).
          Stalls are resolved lazily, by {!Driver.resolve_stall} alone:
          only once every queued request has been refused and nothing
          else can move (a drain pass that grants nothing; in the timed
          simulation, no step executing), so a refusal that dooms only
          its requester costs no abort while others can still finish. *)
  standing : int array;
      (** Standing refusals, read-only: [standing.(tx) = idx] promises
          that [attempt {tx; idx}] would return [Delay] and change
          nothing (no state, no event). The driver answers such a request
          itself instead of asking. The engine owns the array and updates
          it in place; [[||]] (the default) promises nothing, and every
          request is asked. [attempt] sets entries and [on_abort]
          withdraws them; no [attempt] or [commit] changes another
          transaction's entry, so the driver counts a refusal it saw
          standing as standing until the next abort. *)
}

val make :
  name:string ->
  attempt:(Names.step_id -> response) ->
  commit:(Names.step_id -> unit) ->
  ?on_abort:(int -> unit) ->
  ?victim:(int list -> int option) ->
  ?standing:int array ->
  unit ->
  t
(** Defaults: [on_abort] does nothing; [victim] picks the first blocked
    transaction; [standing] is [[||]].

    Why "first" is safe: {!Driver.resolve_stall} presents the stuck
    list as a seniority walk, {e youngest first} by first arrival, so the
    default victim is the youngest blocked transaction — exactly the
    wound-wait seniority order that guarantees termination (the oldest
    transaction is never chosen, so some transaction always survives
    long enough to finish). A scheduler supplying its own [victim] must
    preserve that property itself, as the lock engines' wait-for-cycle
    victim does ({!Tpl_sched.create}). *)
