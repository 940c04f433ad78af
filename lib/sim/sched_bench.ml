open Core

(* One preset: the sizes, mixes and sweeps of every section. Both
   presets run every section; a contended mix (all but disjoint) in the
   sharded and parallel sections keeps only its sizes with n <= 256. *)
type spec = {
  sizes : (int * int) list;  (* (n transactions, m steps) per cell *)
  n_vars : int;
  streams : int;  (* arrival streams per cell *)
  min_time : float;  (* per-cell time budget, seconds *)
  shard_ks : int list;
  shard_sizes : (int * int) list;
  mv_sizes : (int * int) list;
  sem_sizes : (int * int) list;
  samples : int;  (* Monte-Carlo samples behind each admission breadth *)
  (* Each parallel variant runs one shard per domain (K = D), so d1 is
     the monolithic single-shard engine on one domain — the configuration
     a user without the parallel feature gets — and the sweep is the
     engine's scaling curve. [par_streams] is kept apart from [streams]:
     a parallel pass at n = 2048 is orders of magnitude more work than a
     16x8 cell. *)
  par_domains : int list;
  par_sizes : (int * int) list;
  par_streams : int;
  (* Each rate drives [twopc_rounds] commit rounds through a
     [Sched.Twopc.service] over [twopc_parts] participants, with the
     crash rate at the sweep value and the slow-link rate at half it. *)
  twopc_fault_rates : float list;
  twopc_rounds : int;
  twopc_parts : int;
}

type row = {
  scheduler : string;
  mix : string;
  n : int;
  m : int;
  requests : int;  (* requests served: grants + delays + aborts *)
  seconds : float;
  req_per_sec : float;
}

(* Seeds every cell's syntax and arrivals, every admission breadth and
   the 2PC rounds, in both presets. *)
let seed = 42

let default =
  {
    sizes = [ (4, 4); (8, 8); (16, 8) ];
    n_vars = 8;
    streams = 20;
    min_time = 0.2;
    shard_ks = [ 1; 2; 4; 8 ];
    shard_sizes = [ (64, 2); (256, 2); (2048, 2) ];
    mv_sizes = [ (4, 3); (6, 3); (8, 2) ];
    sem_sizes = [ (4, 4); (8, 8); (16, 8) ];
    samples = 200;
    par_domains = [ 1; 2; 4; 8 ];
    (* 2048x2 disjoint is the scaling cell; 256x2 keeps the contended
       mix affordable (same cap as the sharded section) *)
    par_sizes = [ (2048, 2); (256, 2) ];
    par_streams = 2;
    twopc_fault_rates = [ 0.; 0.05; 0.1; 0.2; 0.4 ];
    twopc_rounds = 400;
    twopc_parts = 3;
  }

(* Every section and mix of [default], at tiny sizes, in one pass. *)
let smoke =
  {
    sizes = [ (2, 2); (3, 2) ];
    n_vars = 3;
    streams = 2;
    min_time = 0.;
    shard_ks = [ 4 ];
    shard_sizes = [ (8, 2) ];
    mv_sizes = [ (3, 2) ];
    sem_sizes = [ (3, 2) ];
    samples = 20;
    par_domains = [ 1; 2 ];
    par_sizes = [ (16, 2) ];
    par_streams = 1;
    twopc_fault_rates = [ 0.; 0.3 ];
    twopc_rounds = 20;
    twopc_parts = 2;
  }

let syntax_of_mix st ~mix ~n ~m ~n_vars =
  match mix with
  | "uniform" -> Workload.uniform st ~n ~m ~n_vars
  | "hot" -> Workload.hotspot st ~n ~m ~n_vars ~theta:0.8
  | "skewed" -> Workload.zipf st ~n ~m ~n_vars ~s:1.2
  | "disjoint" ->
    ignore (st : Random.State.t);
    Workload.disjoint ~n ~m
  | "rw-uniform" ->
    Workload.mixed st ~n ~m ~n_vars ~read_frac:0.6
      ~theta:(1.0 /. float_of_int n_vars)
  | "rw-hot" -> Workload.mixed st ~n ~m ~n_vars ~read_frac:0.6 ~theta:0.8
  (* read-mostly with a mild hot spot: updates spread enough that
     first-committer-wins stays quiet while crossing reads still build
     dangerous structures — the mix that exercises SSI's pivot aborts
     (including its false positives) rather than FCW *)
  | "rw-readmost" ->
    Workload.mixed st ~n ~m ~n_vars ~read_frac:0.8 ~theta:0.3
  (* typed counter mixes for the commutativity section: mostly
     increments/decrements with a thin read tail, concentrated on a hot
     key or a zipf head — the regimes where rw conflict detection
     serialises work the semantics never required *)
  | "ctr-hot" ->
    Workload.semantic_counters st ~n ~m ~n_vars ~theta:0.8 ~read_frac:0.1
  | "ctr-skewed" ->
    Workload.semantic_zipf st ~n ~m ~n_vars ~s:1.2 ~read_frac:0.1
  | name -> invalid_arg ("unknown workload mix " ^ name)

(* ---------- timing sections ---------- *)

(* One workload cell: a fresh deterministic rng per (mix, size) — salted
   per section — so every engine of a section sees the identical syntax
   and arrival streams. *)
type cell = {
  mix : string;
  n : int;
  m : int;
  syntax : Syntax.t;
  fmt : int array;
  arrivals : int array array;
}

(* [cap]: contended mixes (all but disjoint) keep only the sizes with
   n <= cap. A single hot/skewed run at n >= 512 takes seconds
   (wound-wait churn on a near-complete conflict graph), which would
   starve every other cell of its time budget; disjoint cells run at
   every size — the scaling story the sharded and parallel sections
   exist to measure. *)
let cells spec ~mixes ~sizes ~cap ~salt ~streams =
  List.concat_map
    (fun mix ->
      let sizes =
        match cap with
        | Some cap when mix <> "disjoint" ->
          List.filter (fun (n, _) -> n <= cap) sizes
        | _ -> sizes
      in
      List.map
        (fun (n, m) ->
          let seed = [ seed; Hashtbl.hash mix; n; m ] @ Option.to_list salt in
          let st = Random.State.make (Array.of_list seed) in
          let syntax = syntax_of_mix st ~mix ~n ~m ~n_vars:spec.n_vars in
          let fmt = Syntax.format syntax in
          let arrivals =
            Array.init streams (fun _ -> Combin.Interleave.random st fmt)
          in
          { mix; n; m; syntax; fmt; arrivals })
        sizes)
    mixes

(* A timed engine: its row label and one run over one of a cell's
   arrival streams, returning the requests it served. *)
type engine = { label : string; serve : cell -> int array -> int }

(* Requests served = scheduler decisions that consumed a submitted
   request: grants (re-executions included) plus delays plus
   outright aborts. Decision-equivalent schedulers therefore serve the
   same request count and differ only in elapsed time. *)
let driven label make =
  {
    label;
    serve =
      (fun c a ->
        let s = Sched.Driver.run (make c.syntax) ~fmt:c.fmt ~arrivals:a in
        s.Sched.Driver.grants + s.Sched.Driver.delays + s.Sched.Driver.restarts);
  }

let registered name =
  let e = Sched.Registry.find_exn name in
  driven e.Sched.Registry.name (fun syntax -> e.Sched.Registry.make syntax)

let sharded_name k = Printf.sprintf "sharded-k%d" k

(* The registry has one sharded entry (K = 4); the section sweeps K. *)
let sharded k =
  driven (sharded_name k) (fun syntax ->
      Sched.Sharded.create ~shards:k ~syntax ())

let parallel_name domains = Printf.sprintf "parallel-d%d" domains

(* Wall-clock runs of the domain-parallel engine, one shard per domain. *)
let parallel domains =
  {
    label = parallel_name domains;
    serve =
      (fun c a ->
        let r =
          Sched.Parallel.run ~domains ~shards:domains ~syntax:c.syntax
            ~arrivals:a ()
        in
        r.Sched.Parallel.grants + r.Sched.Parallel.delays
        + r.Sched.Parallel.restarts);
  }

(* [engine]'s req/s over [baseline]'s in the same cell, reported under
   the cell's key ["mix/NxM"] plus [key] in JSON and with [tag] between
   the cell and the ratio in the text table. *)
type ratio = { engine : string; baseline : string; key : string; tag : string }

type section = {
  name : string;
  engines : engine list;
  mixes : string list;
  sizes : (int * int) list;
  cap : int option;
  salt : int option;
  streams : int;
  ratios : ratio list;
}

(* Every timing section, in run order. Adding a section is one record
   here (plus its place in [to_json] and [pp] if it has ratios to
   report). *)
let sections (spec : spec) =
  let section ?cap ?salt ?(streams = spec.streams) ?(ratios = []) name
      engines mixes sizes =
    { name; engines; mixes; sizes; cap; salt; streams; ratios }
  in
  let ratio ?(key = "") ?(tag = "") engine baseline =
    { engine; baseline; key; tag }
  in
  [
    section "core"
      (List.map registered [ "serial"; "2PL"; "TO"; "SGT"; "SGT-ref" ])
      [ "uniform"; "hot"; "skewed" ] spec.sizes
      ~ratios:[ ratio "SGT" "SGT-ref" ];
    (* single-version SGT against the MV family on typed read/update
       mixes — the workloads where snapshot reads buy admission
       breadth *)
    section "mv"
      (List.map registered [ "SGT"; "MVCC"; "SI"; "SSI" ])
      [ "rw-uniform"; "rw-hot"; "rw-readmost" ] spec.mv_sizes;
    (* rw-SGT against the semantic engine on typed counter mixes — the
       hot and skewed workloads where the commutativity table actually
       removes conflict edges; identical machinery, the only delta being
       the {!Core.Commute} filter on conflict edges *)
    section "semantic"
      (List.map registered [ "SGT"; "semantic" ])
      [ "ctr-hot"; "ctr-skewed" ] spec.sem_sizes
      ~ratios:[ ratio "semantic" "SGT" ];
    (* monolithic SGT against the sharded engine across K on
       partition-sensitive mixes: disjoint is the zero-coordination
       best case, hot and skewed keep the coordinator path timed *)
    section "sharded"
      (registered "SGT" :: List.map sharded spec.shard_ks)
      [ "disjoint"; "hot"; "skewed" ] spec.shard_sizes ~cap:256
      ~ratios:
        (List.map
           (fun k ->
             ratio (sharded_name k) "SGT" ~key:(Printf.sprintf "/k%d" k)
               ~tag:(Printf.sprintf "K=%-2d " k))
           spec.shard_ks);
    (* every domain count on identical streams; each multi-domain
       variant is reported against d1 — the wall-clock scaling curve *)
    section "parallel"
      (List.map parallel spec.par_domains)
      [ "disjoint"; "hot" ] spec.par_sizes ~cap:256 ~salt:0x9a7
      ~streams:spec.par_streams
      ~ratios:
        (List.filter_map
           (fun d ->
             if d = 1 then None
             else
               Some
                 (ratio (parallel_name d) (parallel_name 1)
                    ~key:(Printf.sprintf "/d%d" d)
                    ~tag:(Printf.sprintf "d=%-2d " d)))
           spec.par_domains);
  ]

(* Time every engine of a cell together, in interleaved rounds: each
   round runs one whole pass of each engine, timed individually at pass
   granularity (clock overhead stays out of the measurement).
   Interleaving matters for the reported ratios — timing each engine in
   its own contiguous block lets CPU frequency drift between blocks
   masquerade as a speedup. One warm-up pass per engine, then rounds
   until the cell's time budget ([min_time] x number of engines) is
   spent. *)
let time_cell ~min_time engines c =
  let engines = Array.of_list engines in
  let k = Array.length engines in
  let pass j =
    Array.fold_left (fun acc a -> acc + engines.(j).serve c a) 0 c.arrivals
  in
  let requests = Array.make k 0 in
  let seconds = Array.make k 0. in
  Array.iteri (fun j _ -> ignore (pass j)) engines;
  let budget = min_time *. float_of_int k in
  let total = ref 0. in
  let rounds = ref 0 in
  while !rounds = 0 || !total < budget do
    for j = 0 to k - 1 do
      let t0 = Unix.gettimeofday () in
      requests.(j) <- requests.(j) + pass j;
      let dt = Unix.gettimeofday () -. t0 in
      seconds.(j) <- seconds.(j) +. dt;
      total := !total +. dt
    done;
    incr rounds
  done;
  List.init k (fun j ->
      let requests = requests.(j) and seconds = seconds.(j) in
      {
        scheduler = engines.(j).label;
        mix = c.mix;
        n = c.n;
        m = c.m;
        requests;
        seconds;
        req_per_sec =
          (if seconds > 0. then float_of_int requests /. seconds else 0.);
      })

let time_section spec s =
  List.concat_map
    (time_cell ~min_time:spec.min_time s.engines)
    (cells spec ~mixes:s.mixes ~sizes:s.sizes ~cap:s.cap ~salt:s.salt
       ~streams:s.streams)

(* ---------- admission tables ---------- *)

(* One count column of an admission table: its JSON key, its text
   header and width, and what one traced event adds to it. *)
type column = {
  key : string;
  header : string;
  width : int;
  count : Obs.Event.t -> int;
}

(* Per cell and engine: the Monte-Carlo breadth |P|/|H|
   ({!Sched.Driver.zero_delay_fraction}, the paper's admission-breadth
   measure, §6) plus the columns' counts over one traced pass of the
   cell's streams. Same cell discipline as the timing sections, under
   the table's own salt. *)
type table = {
  title : string;
  engines : string list;
  mixes : string list;
  sizes : (int * int) list;
  salt : int;
  widths : int * int;  (* mix and scheduler columns of the text table *)
  columns : column list;
}

type stat = {
  scheduler : string;
  mix : string;
  n : int;
  m : int;
  breadth : float;
  counts : int list;
}

let column key header width count = { key; header; width; count }

let tables spec =
  [
    (* rw-SGT against the semantic engine on typed counter mixes: there
       the semantic engine's fixpoint strictly contains rw-SGT's, so its
       breadth reads higher *)
    ( "semantic",
      {
        title = "commutativity admission (|P|/|H|, delays and commute passes):";
        engines = [ "SGT"; "semantic" ];
        mixes = [ "ctr-hot"; "ctr-skewed" ];
        sizes = spec.sem_sizes;
        salt = 0x5e6d;
        widths = (12, 9);
        columns =
          [
            column "delays" "delays" 7 (function
              | Obs.Event.Delayed _ -> 1
              | _ -> 0);
            (* grants that sailed past live same-variable accesses
               because every one commuted (always 0 for the rw engine) *)
            column "commute_passes" "passes" 7 (function
              | Obs.Event.Commute_pass _ -> 1
              | _ -> 0);
            (* the accesses those passes skipped — the conflict edges the
               commutativity table deleted *)
            column "commute_skipped" "skipped" 8 (function
              | Obs.Event.Commute_pass { skipped; _ } -> skipped
              | _ -> 0);
          ];
      } );
    ( "mv",
      {
        title = "multi-version admission (|P|/|H| and aborts):";
        engines = [ "SGT"; "MVCC"; "SI"; "SSI" ];
        mixes = [ "rw-uniform"; "rw-hot"; "rw-readmost" ];
        sizes = spec.mv_sizes;
        salt = 0x6d76;
        widths = (10, 8);
        columns =
          [
            column "commits" "commits" 8 (function
              | Obs.Event.Committed _ -> 1
              | _ -> 0);
            (* first-committer-wins refusals *)
            column "ww_aborts" "ww" 6 (function
              | Obs.Event.Ww_refused _ -> 1
              | _ -> 0);
            (* SSI dangerous-structure refusals *)
            column "pivot_aborts" "pivot" 6 (function
              | Obs.Event.Pivot_refused _ -> 1
              | _ -> 0);
            (* pivot refusals whose serialization graph was acyclic — the
               admissions SSI gives up versus an exact certifier *)
            column "false_positive_aborts" "false-pos" 9 (function
              | Obs.Event.Pivot_refused { cyclic = false; _ } -> 1
              | _ -> 0);
          ];
      } );
  ]

let admission spec t =
  List.concat_map
    (fun c ->
      List.map
        (fun name ->
          let e = Sched.Registry.find_exn name in
          let breadth =
            Sched.Driver.zero_delay_fraction
              (fun () -> e.Sched.Registry.make c.syntax)
              ~fmt:c.fmt ~samples:spec.samples ~seed
          in
          let counts = Array.make (List.length t.columns) 0 in
          let emit _ ev =
            List.iteri (fun i col -> counts.(i) <- counts.(i) + col.count ev) t.columns
          in
          let sink = { Obs.Sink.now = 0.; enabled = true; emit } in
          Array.iter
            (fun a ->
              ignore
                (Sched.Driver.run ~sink
                   (e.Sched.Registry.make ~sink c.syntax)
                   ~fmt:c.fmt ~arrivals:a))
            c.arrivals;
          {
            scheduler = e.Sched.Registry.name;
            mix = c.mix;
            n = c.n;
            m = c.m;
            breadth;
            counts = Array.to_list counts;
          })
        t.engines)
    (cells spec ~mixes:t.mixes ~sizes:t.sizes ~cap:None ~salt:(Some t.salt)
       ~streams:spec.streams)

(* ---------- distributed-commit (2PC) section ---------- *)

type twopc_stat = {
  fault_rate : float;
  tp_rounds : int;
  tp_commits : int;
  tp_aborts : int;
  abort_rate : float;
  avg_latency : float;  (* round start -> coordinator decision, virtual time *)
  avg_blocking : float;  (* mean in-doubt window per round *)
  max_blocking : float;
  tp_msgs : int;
  tp_crashes : int;  (* crash-plan entries that actually triggered *)
}

type twopc_section = {
  tp_parts : int;
  sweep : twopc_stat list;  (* one row per fault rate, rate order *)
  cc_repair : float;  (* repair delay of the forced coordinator crashes *)
  cc_avg_blocking : float;
      (* mean in-doubt window over the placements that opened one — the
         measured blocking cost of a coordinator crash *)
  cc_max_blocking : float;
}

let twopc_stats spec =
  let parts = List.init spec.twopc_parts (fun p -> p) in
  let sweep =
    List.map
      (fun rate ->
        let svc =
          Sched.Twopc.service ~crash_rate:rate ~slow_rate:(rate /. 2.)
            ~seed ~shards:spec.twopc_parts ()
        in
        for tx = 0 to spec.twopc_rounds - 1 do
          ignore (Sched.Twopc.commit svc ~tx ~shards:parts)
        done;
        let t = Sched.Twopc.totals svc in
        let fl n = float_of_int (max 1 n) in
        {
          fault_rate = rate;
          tp_rounds = t.Sched.Twopc.rounds;
          tp_commits = t.Sched.Twopc.committed;
          tp_aborts = t.Sched.Twopc.aborted;
          abort_rate =
            float_of_int t.Sched.Twopc.aborted /. fl t.Sched.Twopc.rounds;
          avg_latency = t.Sched.Twopc.latency_sum /. fl t.Sched.Twopc.rounds;
          avg_blocking =
            t.Sched.Twopc.blocking_sum /. fl t.Sched.Twopc.rounds;
          max_blocking = t.Sched.Twopc.blocking_max;
          tp_msgs = t.Sched.Twopc.total_msgs;
          tp_crashes = t.Sched.Twopc.total_crashes;
        })
      spec.twopc_fault_rates
  in
  (* The headline number of the section: the coordinator crashes
     between collecting the votes and broadcasting the decision, so
     every yes-voter sits in doubt until the coordinator is back —
     the blocking window of 2PC, measured over every crash placement
     inside the vote-collection phase. *)
  let cc_repair = 25. in
  let coord = spec.twopc_parts in
  let cfg = Sched.Twopc.default in
  let windows =
    List.map
      (fun at_input ->
        let r =
          Sched.Twopc.round cfg ~nodes:(spec.twopc_parts + 1) ~coord ~parts
            ~tx:0 ~seed
            ~faults:
              [ Sched.Twopc.Crash { node = coord; at_input; repair = cc_repair } ]
            ()
        in
        r.Sched.Twopc.blocking)
      (List.init spec.twopc_parts (fun i -> i + 1))
  in
  let nonzero = List.filter (fun w -> w > 0.) windows in
  let cc_avg_blocking =
    match nonzero with
    | [] -> 0.
    | ws -> List.fold_left ( +. ) 0. ws /. float_of_int (List.length ws)
  in
  let cc_max_blocking = List.fold_left max 0. windows in
  { tp_parts = spec.twopc_parts; sweep; cc_repair; cc_avg_blocking;
    cc_max_blocking }

let pp_twopc ppf (s : twopc_section) =
  Format.fprintf ppf
    "@[<v>2PC over %d participants (coordinator-crash blocking: avg %.1f / \
     max %.1f at repair %.1f):@," s.tp_parts s.cc_avg_blocking
    s.cc_max_blocking s.cc_repair;
  Format.fprintf ppf "%-10s %8s %8s %8s %10s %10s %10s %10s@," "fault"
    "rounds" "commits" "aborts" "abort%" "latency" "blocking" "msgs";
  List.iter
    (fun t ->
      Format.fprintf ppf "%-10.2f %8d %8d %8d %9.1f%% %10.2f %10.2f %10d@,"
        t.fault_rate t.tp_rounds t.tp_commits t.tp_aborts
        (100. *. t.abort_rate) t.avg_latency t.avg_blocking t.tp_msgs)
    s.sweep;
  Format.fprintf ppf "@]"

(* ---------- the whole report ---------- *)

type report = {
  timings : (section * row list) list;
  admissions : (string * (table * stat list)) list;
  twopc : twopc_section;
}

let run spec =
  let timings = List.map (fun s -> (s, time_section spec s)) (sections spec) in
  let admissions =
    List.map (fun (name, t) -> (name, (t, admission spec t))) (tables spec)
  in
  { timings; admissions; twopc = twopc_stats spec }

let rows r = List.concat_map snd r.timings

(* The named section's ratios, in row order: (row, ratio, speedup). *)
let speedups r name =
  let s, rows = List.find (fun (s, _) -> s.name = name) r.timings in
  List.concat_map
    (fun (row : row) ->
      List.filter_map
        (fun q ->
          if q.engine <> row.scheduler then None
          else
            match
              List.find_opt
                (fun (b : row) ->
                  b.scheduler = q.baseline && b.mix = row.mix && b.n = row.n
                  && b.m = row.m)
                rows
            with
            | Some b when b.req_per_sec > 0. ->
              Some (row, q, row.req_per_sec /. b.req_per_sec)
            | Some _ | None -> None)
        s.ratios)
    rows

(* ---------- JSON ---------- *)

module J = Obs.Json

let to_json spec r =
  let line kvs = J.Line (J.Obj kvs) in
  let cell scheduler mix n m =
    [ ("scheduler", J.Str scheduler); ("mix", J.Str mix); ("n", J.int n);
      ("m", J.int m) ]
  in
  let ratio_map name =
    J.Obj
      (List.map
         (fun ((row : row), (q : ratio), x) ->
           ( Printf.sprintf "%s/%dx%d%s" row.mix row.n row.m q.key,
             J.num "%.2f" x ))
         (speedups r name))
  in
  (* an admission table's members *)
  let admission name =
    let t, stats = List.assoc name r.admissions in
    [
      ("samples", J.int spec.samples);
      ( "results",
        J.Arr
          (List.map
             (fun s ->
               line
                 (cell s.scheduler s.mix s.n s.m
                 @ ("breadth", J.num "%.4f" s.breadth)
                   :: List.map2 (fun c v -> (c.key, J.int v)) t.columns s.counts
                 ))
             stats) );
    ]
  in
  let s = r.twopc in
  J.Obj
    [
       ("benchmark", J.Str "sched");
       ("unit", J.Str "requests_per_second");
       ( "config",
         line
           [
             ("n_vars", J.int spec.n_vars);
             ("streams", J.int spec.streams);
             ("min_time", J.num "%g" spec.min_time);
             ("seed", J.int seed);
             ("shard_ks", J.Arr (List.map J.int spec.shard_ks));
           ] );
       ( "results",
         J.Arr
           (List.map
              (fun (row : row) ->
                line
                  (cell row.scheduler row.mix row.n row.m
                  @ [
                      ("requests", J.int row.requests);
                      ("seconds", J.num "%.6f" row.seconds);
                      ("req_per_sec", J.num "%.1f" row.req_per_sec);
                    ]))
              (rows r)) );
       ("sgt_speedup_vs_ref", ratio_map "core");
       ("sharded_speedup_vs_sgt", ratio_map "sharded");
       (* wall-clock context the ratios cannot be read without: on a host
          with fewer cores than domains the speedup is algorithmic
          (smaller per-worker graphs and histories), not concurrent *)
       ( "parallel",
         J.Obj
           [
             ("recommended_domains", J.int (Domain.recommended_domain_count ()));
             ( "note",
               J.Str
                 "wall-clock ratios vs the d1 variant on identical arrival \
                  streams; on hosts with fewer cores than domains the gain \
                  is algorithmic (smaller per-worker state), true \
                  concurrency engages on multicore" );
             ("speedup_vs_d1", ratio_map "parallel");
           ] );
       ( "twopc",
         J.Obj
           [
             ("parts", J.int s.tp_parts);
             ("rounds_per_rate", J.int spec.twopc_rounds);
             ( "sweep",
               J.Arr
                 (List.map
                    (fun t ->
                      line
                        [
                          ("fault_rate", J.num "%.3f" t.fault_rate);
                          ("rounds", J.int t.tp_rounds);
                          ("commits", J.int t.tp_commits);
                          ("aborts", J.int t.tp_aborts);
                          ("abort_rate", J.num "%.4f" t.abort_rate);
                          ("avg_commit_latency", J.num "%.3f" t.avg_latency);
                          ("avg_blocking", J.num "%.3f" t.avg_blocking);
                          ("max_blocking", J.num "%.3f" t.max_blocking);
                          ("msgs", J.int t.tp_msgs);
                          ("crashes", J.int t.tp_crashes);
                        ])
                    s.sweep) );
             ( "coordinator_crash",
               line
                 [
                   ("repair", J.num "%.1f" s.cc_repair);
                   ("avg_blocking", J.num "%.3f" s.cc_avg_blocking);
                   ("max_blocking", J.num "%.3f" s.cc_max_blocking);
                 ] );
           ] );
       ( "semantic_section",
         J.Obj
           (admission "semantic" @ [ ("speedup_vs_sgt", ratio_map "semantic") ])
       );
       ("mv_section", J.Obj (admission "mv"));
     ]

(* ---------- text rendering ---------- *)

let pp_rows ppf r =
  Format.fprintf ppf "%-8s %-8s %6s %12s %10s %14s@." "mix" "sched" "n x m"
    "requests" "seconds" "req/s";
  List.iter
    (fun (row : row) ->
      Format.fprintf ppf "%-8s %-8s %3dx%-3d %12d %10.4f %14.1f@." row.mix
        row.scheduler row.n row.m row.requests row.seconds row.req_per_sec)
    (rows r);
  (* one ratio table per section that has ratios: heading, mix width *)
  List.iter
    (fun (name, heading, width) ->
      Format.fprintf ppf "@.%s@." heading;
      List.iter
        (fun ((row : row), q, x) ->
          Format.fprintf ppf "  %-*s %3dx%-3d %s%6.2fx@." width row.mix row.n
            row.m q.tag x)
        (speedups r name))
    [
      ("core", "SGT speedup vs SGT-ref:", 8);
      ("sharded", "sharded speedup vs SGT:", 8);
      ("semantic", "semantic speedup vs SGT:", 10);
      ( "parallel",
        Printf.sprintf
          "parallel wall-clock speedup vs 1 domain (%d cores recommended):"
          (Domain.recommended_domain_count ()),
        8 );
    ]

let pp_admission ppf (t, stats) =
  let mw, sw = t.widths in
  Format.fprintf ppf "@.%s@.%-*s %-*s %6s %9s" t.title mw "mix" sw "sched"
    "n x m" "breadth";
  List.iter (fun c -> Format.fprintf ppf " %*s" c.width c.header) t.columns;
  Format.fprintf ppf "@.";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-*s %-*s %3dx%-3d %9.3f" mw s.mix sw s.scheduler
        s.n s.m s.breadth;
      List.iter2 (fun c v -> Format.fprintf ppf " %*d" c.width v) t.columns
        s.counts;
      Format.fprintf ppf "@.")
    stats

let pp ppf r =
  pp_rows ppf r;
  List.iter (fun (_, a) -> pp_admission ppf a) r.admissions;
  Format.fprintf ppf "%a@." pp_twopc r.twopc
