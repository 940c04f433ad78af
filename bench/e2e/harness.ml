(* The run model. A batch is one finite transaction system and its
   arrival order, generated from (seed, batch index): the paper's history
   H, and the only unit [Driver] supports, since a stall is resolved only
   inside [drain]. Set-up (generation, engine, [Driver.create]) is
   untimed. The timed part is open loop: arrival [i] is due at
   [t0 + i / rate], the generator spins until then, calls [submit], and
   calls [drain] after the last arrival. Rates and the end-to-end times
   are in reference time ([Host]): wall time divided by the host factor
   measured just before the batch. *)

open Core
module Driver = Sched.Driver

type batch = { syntax : Syntax.t; fmt : int array; arrivals : int array }

let batch (w : Workloads.t) ~seed ~index =
  let st = Random.State.make [| seed; Hashtbl.hash w.name; index |] in
  let syntax = w.gen st ~n:w.n ~m:w.m in
  let fmt = Syntax.format syntax in
  { syntax; fmt; arrivals = Combin.Interleave.random st fmt }

(* Every transaction committed, and the committed schedule is
   (commutativity-aware) conflict serializable. A stalled batch counts
   as failed, not as wrong. *)
let verified b = function
  | None -> true
  | Some (s : Driver.stats) ->
    Array.length s.output = Array.length b.arrivals
    && Conflict.serializable b.syntax s.output

type paced = {
  batch : batch;
  stats : Driver.stats option;  (** [None]: the batch stalled *)
  factor : float;  (** host factor: wall time per unit of reference time *)
  setup_ns : int;
  busy_ns : int;  (** timed wall time minus time spent waiting for due times *)
  drain_ns : int;
  minor_words : int;  (** allocated in the timed region *)
  lat_ns : int array;
      (** per transaction, in reference ns: its final step's [commit]
          callback minus the due time of its final arrival *)
  late_ns : int array;  (** per arrival: submit time minus due time *)
  drain_commits : int;  (** transactions that committed inside [drain] *)
  state_words : int;
      (** reachable words of engine and driver after the last [submit],
          when [probe] *)
}

(* One untraced, paced batch. Its only probe is a wrapper on the
   engine's [commit] that stamps final steps. A [probe] batch measures
   memory instead of time, so it runs unpaced. *)
let paced ?(probe = false) (w : Workloads.t) ~seed ~index =
  let factor = Host.factor (max 1 (w.n * w.m / 128)) in
  let period = if probe then 0. else Stats.period_ns ~rate:w.rate ~factor in
  let t_setup = Probe.now () in
  let b = batch w ~seed ~index in
  let engine = Workloads.make w ~sink:Obs.Sink.null ~cross:Fun.id b.syntax in
  let n = Array.length b.fmt in
  let commit_at = Array.make n 0 in
  let sched =
    {
      engine with
      Sched.Scheduler.commit =
        (fun (id : Names.step_id) ->
          engine.commit id;
          if id.idx = b.fmt.(id.tx) - 1 then commit_at.(id.tx) <- Probe.now ());
    }
  in
  let drv = Driver.create sched ~fmt:b.fmt in
  let setup_ns = Probe.now () - t_setup in
  let len = Array.length b.arrivals in
  let late = Array.make len 0 in
  let state_words = ref 0 in
  let spin = ref 0 in
  let w0 = Probe.words () in
  let t0 = Probe.now () in
  let outcome =
    match
      for i = 0 to len - 1 do
        let due = Stats.due_ns ~t0 ~period i in
        let t = ref (Probe.now ()) in
        if !t < due then begin
          let start = !t in
          while !t < due do
            t := Probe.now ()
          done;
          spin := !spin + (!t - start)
        end;
        late.(i) <- !t - due;
        Driver.submit drv b.arrivals.(i)
      done;
      if probe then state_words := Obj.reachable_words (Obj.repr drv);
      let t_drain = Probe.now () in
      (t_drain, Driver.drain drv)
    with
    | r -> Some r
    | exception Driver.Stall _ -> None
  in
  let t_end = Probe.now () in
  let minor_words = Probe.words () - w0 in
  let busy_ns = t_end - t0 - !spin in
  match outcome with
  | None ->
    {
      batch = b; stats = None; factor; setup_ns; busy_ns; drain_ns = 0;
      minor_words; lat_ns = [||]; late_ns = late; drain_commits = 0;
      state_words = !state_words;
    }
  | Some (t_drain, stats) ->
    let last = Array.make n 0 in
    Array.iteri (fun i tx -> last.(tx) <- i) b.arrivals;
    let lat_ns =
      Array.init n (fun tx ->
          let wall = commit_at.(tx) - Stats.due_ns ~t0 ~period last.(tx) in
          Float.to_int (float_of_int wall /. factor))
    in
    let drain_commits =
      Array.fold_left (fun c t -> if t >= t_drain then c + 1 else c) 0 commit_at
    in
    {
      batch = b; stats = Some stats; factor; setup_ns; busy_ns;
      drain_ns = t_end - t_drain; minor_words; lat_ns; late_ns = late;
      drain_commits; state_words = !state_words;
    }

type result = {
  correct : bool;
  attempted : int;  (** transactions submitted in timed batches *)
  failed : int;  (** transactions of batches that stalled *)
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* Commit latency quantiles are taken per window of consecutive timed
   batches that holds at least [window] commits, and the median over
   windows is reported. Within a slice the host's speed changes several
   times and the host factor follows it only roughly from batch to batch,
   so a quantile pooled over a slice reads the mix of speeds in it. A
   window (4 batches of [disjoint], 64 of [hot]) mostly sees one. Over 10
   seeds of [disjoint] at 512x2, p90 spread 2-3% this way and 4-6%
   pooled by slice.

   The tail reported is p90, not p99. On a shared 2-vCPU host a loop
   that only reads the clock sees gaps of 20-250 us about 180 times a
   second. Where a transaction never waits ([disjoint]), the commits due
   during such a pause, or while the generator catches up after it, are
   about 1% of all, so a p99 reads the host's pause rate: at 512x2 it
   spread 22-33% over 10 seeds. p90 lies below them. *)
let window = 1024

let median_or_0 = function [] -> 0. | l -> Stats.median (Array.of_list l)

(* [slices] slices of one warm-up batch and [per_slice] timed batches.
   The warm-up batch is untimed and is the memory probe. Capacity,
   set-up time and memory are medians over slices, latencies medians
   over windows, all in reference time. *)
let run (w : Workloads.t) ~seed ~slices ~per_slice =
  let correct = ref true and attempted = ref 0 and failed = ref 0 in
  let commits = ref 0 and restarts = ref 0 in
  let capacity = Array.make slices 0. and setup = Array.make slices 0. in
  let state = Array.make slices 0. in
  let lats = ref [] and in_window = ref 0 and p50 = ref [] and p90 = ref [] in
  let close_window () =
    let l = Array.concat !lats in
    Array.sort compare l;
    p50 := (float_of_int (Stats.quantile l 0.50) /. 1e3) :: !p50;
    p90 := (float_of_int (Stats.quantile l 0.90) /. 1e3) :: !p90;
    lats := [];
    in_window := 0
  in
  for s = 0 to slices - 1 do
    let base = s * (per_slice + 1) in
    let warm = paced ~probe:true w ~seed ~index:base in
    if not (verified warm.batch warm.stats) then correct := false;
    state.(s) <-
      float_of_int (warm.state_words * (Sys.word_size / 8)) /. 1048576.;
    let busy = ref 0. and slice_commits = ref 0 in
    for j = 1 to per_slice do
      let r = paced w ~seed ~index:(base + j) in
      if not (verified r.batch r.stats) then correct := false;
      attempted := !attempted + w.n;
      setup.(s) <- setup.(s) +. (float_of_int r.setup_ns /. r.factor /. 1e9);
      match r.stats with
      | None -> failed := !failed + w.n
      | Some st ->
        slice_commits := !slice_commits + w.n;
        restarts := !restarts + st.restarts;
        busy := !busy +. (float_of_int r.busy_ns /. r.factor /. 1e9);
        lats := r.lat_ns :: !lats;
        in_window := !in_window + w.n;
        if !in_window >= window then close_window ()
    done;
    commits := !commits + !slice_commits;
    if !slice_commits > 0 then
      capacity.(s) <- float_of_int !slice_commits /. !busy
  done;
  (* a run too short to fill a window (--smoke) reports what it has *)
  if !p50 = [] && !in_window > 0 then close_window ();
  let tried = !commits + !restarts + !failed in
  {
    correct = !correct;
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        ("capacity_tps", Stats.median capacity, "txn/s");
        ("commit_p50_us", median_or_0 !p50, "us");
        ("commit_p90_us", median_or_0 !p90, "us");
        ("commit_frac", float_of_int !commits /. float_of_int (max 1 tried), "ratio");
        ("setup_s", Stats.median setup, "s");
        ("state_mb", Stats.median state, "MiB");
      ];
  }

(* ---------- traced pass ---------- *)

type traced = {
  t_stats : Driver.stats option;
  gen_ns : int;
  create_ns : int;
}

(* One unpaced batch with every layer boundary inside a span and one
   counting sink shared by engine, driver and 2PC service. *)
let traced (w : Workloads.t) (p : Probe.t) ~seed ~index =
  let t0 = Probe.now () in
  let b = batch w ~seed ~index in
  let t1 = Probe.now () in
  let sink = Probe.sink p in
  let engine = Workloads.make w ~sink ~cross:(Probe.wrap_cross p) b.syntax in
  let t2 = Probe.now () in
  let drv = Driver.create ~sink (Probe.wrap p engine) ~fmt:b.fmt in
  Probe.enter p Probe.batch;
  let t_stats =
    match
      Array.iter (Probe.timed p Probe.submit (Driver.submit drv)) b.arrivals;
      Probe.timed p Probe.drain Driver.drain drv
    with
    | s ->
      Probe.leave p;
      Some s
    | exception Driver.Stall _ ->
      Probe.unwind p;
      None
  in
  { t_stats; gen_ns = t1 - t0; create_ns = t2 - t1 }

(* Decisions are a function of (syntax, arrivals) alone: pacing and
   probes must not change them. *)
let same_decisions (a : Driver.stats option) (b : Driver.stats option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.delays = b.delays && a.restarts = b.restarts && a.grants = b.grants
    && a.deadlocks = b.deadlocks && a.aborts = b.aborts && a.output = b.output
  | _ -> false

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Batches [0, batches): each one paced and untraced (lateness,
   drain-time shares, allocation, capacity), verified (timed), then
   again unpaced and traced. Every traced decision must equal the
   untraced one. End-to-end metrics never come from here. Times here
   are wall-clock; [host.factor] gives the pass's median host factor. *)
let trace ?trace_out (w : Workloads.t) ~seed ~batches =
  let p = Probe.create () in
  let correct = ref true and failed = ref 0 in
  let txns = ref 0 and arrivals = ref 0 and delays = ref 0 in
  let restarts = ref 0 and grants = ref 0 in
  let busy = ref 0 and drain = ref 0 and minor = ref 0 in
  let drain_commits = ref 0 and verify_ns = ref 0 in
  let gen_ns = ref 0 and create_ns = ref 0 and cross = ref 0. in
  let late = ref [] and factors = Array.make batches 0. in
  for index = 0 to batches - 1 do
    let r = paced w ~seed ~index in
    factors.(index) <- r.factor;
    let tv = Probe.now () in
    if not (verified r.batch r.stats) then correct := false;
    verify_ns := !verify_ns + (Probe.now () - tv);
    if Workloads.shards w > 0 then
      cross :=
        !cross
        +. Sched.Partition.cross_fraction
             (Sched.Partition.make ~syntax:r.batch.syntax
                ~shards:(Workloads.shards w));
    p.record <- trace_out <> None && index = 0;
    let t = traced w p ~seed ~index in
    if not (same_decisions r.stats t.t_stats) then correct := false;
    gen_ns := !gen_ns + t.gen_ns;
    create_ns := !create_ns + t.create_ns;
    txns := !txns + w.n;
    arrivals := !arrivals + Array.length r.batch.arrivals;
    late := r.late_ns :: !late;
    match r.stats with
    | None -> failed := !failed + w.n
    | Some s ->
      delays := !delays + s.delays;
      restarts := !restarts + s.restarts;
      grants := !grants + s.grants;
      busy := !busy + r.busy_ns;
      drain := !drain + r.drain_ns;
      minor := !minor + r.minor_words;
      drain_commits := !drain_commits + r.drain_commits
  done;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Probe.chrome p)))
    trace_out;
  let commits = !txns - !failed in
  let per k = ratio p.self_ns.(k) p.calls.(k) in
  let words k = ratio p.self_words.(k) p.calls.(k) in
  let ev k = p.events.(k) in
  let late = Array.concat !late in
  Array.sort compare late;
  let traced_ns = p.total_ns.(Probe.batch) in
  let rounds = p.calls.(Probe.commit_cross) in
  {
    correct = !correct;
    attempted = !txns;
    failed = !failed;
    metrics =
      [
        ("gen.build_us_per_batch", ratio !gen_ns batches /. 1e3, "us");
        ("gen.late_p99_us", float_of_int (Stats.quantile late 0.99) /. 1e3, "us");
        ("driver.attempts_per_req", ratio p.calls.(Probe.attempt) !arrivals, "ratio");
        ("driver.delays_per_req", ratio !delays !arrivals, "ratio");
        ("driver.self_ns_per_req",
         ratio (p.self_ns.(Probe.submit) + p.self_ns.(Probe.drain)) !arrivals, "ns");
        ("driver.restarts_per_txn", ratio !restarts !txns, "ratio");
        ("driver.drain_commit_frac", ratio !drain_commits commits, "ratio");
        ("driver.drain_share", ratio !drain !busy, "ratio");
        ("sched.create_us_per_batch", ratio !create_ns batches /. 1e3, "us");
        ("sched.attempt_ns_per_call", per Probe.attempt, "ns");
        ("sched.attempt_words_per_call", words Probe.attempt, "words");
        ("sched.commit_ns_per_call", per Probe.commit, "ns");
        ("sched.commit_words_per_call", words Probe.commit, "words");
        ("sched.abort_ns_per_call", per Probe.on_abort, "ns");
        ("sched.grant_ratio", ratio !grants p.calls.(Probe.attempt), "ratio");
        ("cgraph.edges_per_grant", ratio (ev Probe.ev_edge) !grants, "ratio");
        ("cgraph.fresh_refusals_per_req", ratio (ev Probe.ev_refused) !arrivals, "ratio");
        ("cgraph.cached_delay_frac",
         ratio (!delays - ev Probe.ev_refused) !delays, "ratio");
        ("commute.passes_per_grant", ratio (ev Probe.ev_commute) !grants, "ratio");
        ("commute.skipped_per_grant",
         ratio (ev Probe.ev_commute_skipped) !grants, "ratio");
        ("shard.cross_frac", !cross /. float_of_int batches, "ratio");
        ("shard.routed_per_attempt",
         ratio (ev Probe.ev_routed) p.calls.(Probe.attempt), "ratio");
        ("twopc.rounds_per_txn", ratio rounds !txns, "ratio");
        ("twopc.msgs_per_round", ratio (ev Probe.ev_twopc_sent) rounds, "ratio");
        ("twopc.us_per_round", ratio p.total_ns.(Probe.commit_cross) rounds /. 1e3, "us");
        ("twopc.busy_share", ratio p.total_ns.(Probe.commit_cross) traced_ns, "ratio");
        ("verify.ms_per_batch", ratio !verify_ns batches /. 1e6, "ms");
        ("gc.minor_words_per_txn", ratio !minor commits, "words");
        ("trace.capacity_ratio", ratio !busy traced_ns, "ratio");
        ("host.factor", Stats.median factors, "ratio");
      ];
  }

(* ---------- output ---------- *)

let to_json r =
  let metric (name, v, unit) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote name)
      (Json.number v) (Json.quote unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let pp_table oc r =
  List.iter
    (fun (name, v, unit) -> Printf.fprintf oc "  %-30s %16.6g %s\n" name v unit)
    r.metrics
