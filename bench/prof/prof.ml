(* A sampling profiler for one workload of the end-to-end benchmark.

     prof.exe [--workload NAME] [--seed N] [--seconds S]

   It runs the workload's batches back to back, unpaced and untraced,
   each through the same four phases as the benchmark's set-up and timed
   region: gen (the batch), create (the engine and [Driver.create]),
   submit (every arrival) and drain. [ITIMER_PROF] is set to a
   millisecond of CPU time, but the kernel delivers the signal at its
   own tick, so far fewer arrive: about 250 per CPU second on a 250 Hz
   kernel. The handler counts every signal and keeps the interrupted
   call stack ([Printexc.get_callstack]) of those that fall in a phase.
   Each batch is then checked as the benchmark checks it, unsampled (on
   [hot] most signals land there). At the end it prints the signals
   taken, the samples kept and the CPU seconds they came from, then,
   per phase, its share of the samples and its minor
   collections per batch, then the [top] functions by inclusive share
   (the samples with the function anywhere on the stack) with their
   self share (the samples with it on top). Before those it prints the
   driver's work over the first [counted] batches: engine [attempt]
   calls (counted by a wrapper that keeps the engine's standing
   refusals), delays, grants and restarts per request, and stalls (the
   driver's deadlocks) per batch.

   The libraries under lib/ are built with a raised inlining budget
   (lib/dune), so many small helpers run inlined in their callers. The
   debug information still names an inlined helper as a frame of its
   own, but its body is compiled into each caller, without a call or an
   entry of its own, and the points where the runtime takes the signal
   move with it. So function-level shares from a build before that
   budget cannot be compared by name with later ones; phase shares and
   the driver's counts can.

   The handler allocates one small array per sample, so sampling itself
   adds at most a few minor collections a minute; a phase that forces
   collections shows one or more per batch. Exit 1 when a batch is not
   serializable or does not commit everything, 2 on bad arguments. *)

open E2e

let phases = [| "gen"; "create"; "submit"; "drain" |]
let gen = 0
let create = 1
let submit = 2
let drain = 3
let unsampled = -1
let top = 30
let counted = 200

(* The phase running now, the signals taken so far, and the samples
   kept (those taken in a phase), newest first. *)
let phase = ref unsampled
let signals = ref 0
let samples : (int * Printexc.raw_backtrace) list ref = ref []

let on_sample _ =
  incr signals;
  if !phase <> unsampled then
    samples := (!phase, Printexc.get_callstack 256) :: !samples

(* Run [f x] as phase [k], adding its minor collections to [gcs.(k)]. *)
let in_phase gcs k f x =
  phase := k;
  let before = (Gc.quick_stat ()).minor_collections in
  let r = f x in
  gcs.(k) <- gcs.(k) + (Gc.quick_stat ()).minor_collections - before;
  phase := unsampled;
  r

(* The functions on a sampled stack, innermost first, less this file's
   own frames (the handler and the batch loop). *)
let frames stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map Printexc.Slot.name
    |> List.filter (fun name -> not (String.starts_with ~prefix:"Dune__exe__Prof" name))

(* Driver work over the counted batches: attempt calls (from the
   wrapper), then the sums of [Driver.stats]. *)
type work = {
  mutable batches : int;
  mutable requests : int;
  mutable attempts : int;
  mutable delays : int;
  mutable grants : int;
  mutable restarts : int;
  mutable stalls : int;
}

let work =
  { batches = 0; requests = 0; attempts = 0; delays = 0; grants = 0;
    restarts = 0; stalls = 0 }

(* The engine with every [attempt] counted; [standing] is kept, so the
   driver asks exactly what it asks the bare engine. *)
let counting (e : Sched.Scheduler.t) =
  { e with
    attempt = (fun id -> work.attempts <- work.attempts + 1; e.attempt id) }

let add_work requests (s : Sched.Driver.stats) =
  work.batches <- work.batches + 1;
  work.requests <- work.requests + requests;
  work.delays <- work.delays + s.delays;
  work.grants <- work.grants + s.grants;
  work.restarts <- work.restarts + s.restarts;
  work.stalls <- work.stalls + s.deadlocks

let report_work () =
  let per d k = float_of_int k /. float_of_int (max 1 d) in
  Printf.printf "driver work over the first %d batches (%d requests), per request:\n"
    work.batches work.requests;
  Printf.printf "%8s %8s %8s %8s %14s\n" "attempts" "delays" "grants" "restarts"
    "stalls/batch";
  Printf.printf "%8.3f %8.3f %8.3f %8.3f %14.2f\n\n" (per work.requests work.attempts)
    (per work.requests work.delays) (per work.requests work.grants)
    (per work.requests work.restarts) (per work.batches work.stalls)

let report ~batches ~cpu gcs =
  let n = List.length !samples in
  let share k = if n = 0 then 0. else float_of_int k /. float_of_int n in
  let in_phase = Array.make (Array.length phases) 0 in
  let incl = Hashtbl.create 256 and self = Hashtbl.create 256 in
  let bump tbl name =
    Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  List.iter
    (fun (k, stack) ->
      in_phase.(k) <- in_phase.(k) + 1;
      match frames stack with
      | [] -> ()
      | top :: _ as names ->
        bump self top;
        List.iter (bump incl) (List.sort_uniq compare names))
    !samples;
  Printf.printf "%d signals (%.0f per CPU s), %d samples kept\n\n" !signals
    (float_of_int !signals /. cpu) n;
  report_work ();
  Printf.printf "%-8s %8s %18s\n" "phase" "share" "minor GCs/batch";
  Array.iteri
    (fun k name ->
      Printf.printf "%-8s %8.3f %18.3f\n" name (share in_phase.(k))
        (float_of_int gcs.(k) /. float_of_int (max 1 batches)))
    phases;
  let ranked =
    Hashtbl.fold (fun name c acc -> (c, name) :: acc) incl []
    |> List.sort (fun (a, x) (b, y) -> if a <> b then compare b a else compare x y)
  in
  Printf.printf "\n%9s %8s  function\n" "inclusive" "self";
  List.iteri
    (fun i (c, name) ->
      if i < top then
        Printf.printf "%9.3f %8.3f  %s\n" (share c)
          (share (Option.value ~default:0 (Hashtbl.find_opt self name)))
          name)
    ranked

let () =
  let workload = ref "disjoint" and seed = ref 1 and seconds = ref 10 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  workload (default disjoint)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  CPU seconds to run (default 10)");
    ]
  in
  let usage = "usage: prof.exe [--workload NAME] [--seed N] [--seconds S]" in
  (try
     Arg.parse_argv Sys.argv spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad m ->
    prerr_string m;
    exit 2
  | Arg.Help m ->
    print_string m;
    exit 0);
  let w =
    match Workloads.find !workload with
    | Some w when !seconds >= 1 -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let gcs = Array.make (Array.length phases) 0 in
  let batches = ref 0 and correct = ref true in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let start = Sys.time () in
  let stop = start +. float_of_int !seconds in
  while Sys.time () < stop do
    let b = in_phase gcs gen (fun index -> Harness.batch w ~seed:!seed ~index) !batches in
    let counts = !batches < counted in
    let drv =
      in_phase gcs create
        (fun syntax ->
          let engine = Workloads.make w ~sink:Obs.Sink.null ~cross:Fun.id syntax in
          let engine = if counts then counting engine else engine in
          Sched.Driver.create engine ~fmt:b.fmt)
        b.syntax
    in
    in_phase gcs submit (Array.iter (Sched.Driver.submit drv)) b.arrivals;
    let stats =
      try Some (in_phase gcs drain Sched.Driver.drain drv)
      with Sched.Driver.Stall _ ->
        phase := unsampled;
        None
    in
    if not (Harness.verified b stats) || stats = None then correct := false;
    (match stats with
    | Some s when counts -> add_work (Array.length b.arrivals) s
    | _ -> ());
    incr batches
  done;
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  let cpu = Sys.time () -. start in
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  Printf.printf "workload %s: %s, %dx%d, seed %d, %d batches unpaced in %.2f CPU s, "
    w.name (Workloads.engine_name w) w.n w.m !seed !batches cpu;
  report ~batches:!batches ~cpu gcs;
  if not !correct then exit 1
