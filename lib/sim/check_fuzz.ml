open Core
open Analysis

type outcome = {
  runs : int;
  herbrand_agreed : int;
  mutants_total : int;
  mutants_rejected : int;
  si_write_skews : int;
  failures : string list;
}

let declared_level (e : Sched.Registry.entry) =
  match Checker.level_of_name e.Sched.Registry.level with
  | Some l -> l
  | None ->
    invalid_arg
      (Printf.sprintf "registry entry %s declares unknown level %S"
         e.Sched.Registry.slug e.Sched.Registry.level)

let engines syntax =
  List.map
    (fun (e : Sched.Registry.entry) ->
      ( e.Sched.Registry.slug,
        declared_level e,
        fun sink -> e.Sched.Registry.make ~sink syntax ))
    Sched.Registry.all
  @ List.filter_map
      (fun k ->
        (* K = 4 is the registry's own "sharded" entry *)
        if k = 4 then None
        else
          Some
            ( Printf.sprintf "sharded-k%d" k,
              Checker.Serializability,
              fun sink -> Sched.Sharded.create ~sink ~shards:k ~syntax () ))
      [ 1; 4; 8 ]

(* Reconstruct the committed history of a recorded run. Single-version
   engines: replay the committed schedule (read-latest semantics).
   Multi-version engines (version events present): take the values the
   engine actually served from its snapshots — replaying the schedule
   would misreport every snapshot read. *)
let history_of_events ~label ?(complete = true) syntax events =
  (* a log of some other system must not fold into a history of this
     one (a step index out of range is [History.of_steps]' error) *)
  let n = Syntax.n_transactions syntax in
  List.iter
    (fun (_, ev) ->
      List.iter
        (function
          | _, Obs.Event.Tx t when t < 0 || t >= n ->
            invalid_arg
              (Printf.sprintf "%s: no transaction %d (the syntax has %d)"
                 (Obs.Event.to_string ev) t n)
          | _ -> ())
        (snd (Obs.Event.fields ev)))
    events;
  let mv = Obs.Fold.mv_history events in
  if not mv.Obs.Fold.recorded then
    let fold = Obs.Fold.history events in
    History.of_steps ~label
      ~complete:(complete && not fold.Obs.Fold.truncated)
      syntax fold.Obs.Fold.steps
  else begin
    let n = Syntax.n_transactions syntax in
    let sess =
      List.init n (fun i ->
          match List.assoc_opt i mv.Obs.Fold.txns with
          | Some accs ->
            [
              List.map
                (fun (a : Obs.Fold.mv_access) ->
                  {
                    History.kind = (if a.Obs.Fold.write then History.W else History.R);
                    var = a.Obs.Fold.var;
                    value = a.Obs.Fold.value;
                  })
                accs;
            ]
          | None -> [ [] ])
    in
    History.make ~label
      ~complete:(complete && not mv.Obs.Fold.mv_truncated)
      sess
  end

type recording = {
  stats : Sched.Driver.stats;
  events : (float * Obs.Event.t) list;
  dropped : int;
  history : History.t;
}

let record ?(capacity = Trace_run.default_capacity) ~label ~seed syntax mk =
  let fmt = Syntax.format syntax in
  let arrivals = Combin.Interleave.random (Random.State.make [| seed |]) fmt in
  let ring = Obs.Sink.Ring.create ~capacity in
  let sink = Obs.Sink.Ring.sink ring in
  let stats = Sched.Driver.run ~sink (mk sink) ~fmt ~arrivals in
  let events = Obs.Sink.Ring.events ring in
  let dropped = Obs.Sink.Ring.dropped ring in
  { stats; events; dropped;
    history = history_of_events ~label ~complete:(dropped = 0) syntax events }

(* A rejected mutant needs a witness that replays; which replay applies
   depends on the witness shape. *)
let witness_replays h level (w : Checker.witness) =
  match w with
  | Checker.Cycle edges -> Checker.replay_cycle h level edges
  | Checker.No_order _ ->
    History.n h > 8 || not (Checker.exists_order h level)
  | (Checker.Dangling_read _ | Checker.Ambiguous_write _
    | Checker.Internal_misread _) as w -> List.mem w (Checker.well_formed h)

let check_mutants ~label ~seed h (fails, total, rejected) =
  let rng = Random.State.make [| seed; 0x6d75 |] in
  List.fold_left
    (fun (fails, total, rejected) kind ->
      match History.mutate kind rng h with
      | None -> (fails, total, rejected)
      | Some hm -> (
        let total = total + 1 in
        match (Checker.check hm Checker.Serializability).verdict with
        | Checker.Violation w ->
          if witness_replays hm Checker.Serializability w then
            (fails, total, rejected + 1)
          else
            ( Printf.sprintf "%s: %s witness does not replay" label
                (History.mutation_name kind)
              :: fails,
              total,
              rejected )
        | Checker.Consistent _ ->
          ( Printf.sprintf "%s: %s mutant accepted" label
              (History.mutation_name kind)
            :: fails,
            total,
            rejected )
        | Checker.Unknown msg ->
          ( Printf.sprintf "%s: %s mutant unknown (%s)" label
              (History.mutation_name kind)
              msg
            :: fails,
            total,
            rejected )))
    (fails, total, rejected)
    History.mutations

(* One scheduler run: drive it with a ring sink, reconstruct the
   committed history from the trace, and check it at every level up to
   the engine's declared one. Engines declaring SER additionally face
   the Herbrand oracle (pure-RMW syntaxes, small n) and the mutation
   gauntlet; SI engines feed the positive write-skew counter whenever
   the checker catches them above their level. *)
let check_run ~label ~seed ~level syntax mk acc =
  let n = Syntax.n_transactions syntax in
  let { stats; events; dropped; history = h } = record ~label ~seed syntax mk in
  let fold = Obs.Fold.history events in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := (label ^ ": " ^ m) :: !fails) fmt in
  if dropped > 0 then fail "ring dropped events";
  if fold.Obs.Fold.truncated then fail "fold claims truncation on a complete trace";
  let out_steps =
    Array.to_list
      (Array.map
         (fun (s : Names.step_id) -> (s.Names.tx, s.Names.idx))
         stats.Sched.Driver.output)
  in
  if fold.Obs.Fold.steps <> out_steps then
    fail "Fold.history disagrees with the driver's output schedule";
  if fold.Obs.Fold.commits <> List.init n Fun.id then
    fail "Fold.history commit set incomplete";
  let mv = Obs.Fold.mv_history events in
  if mv.Obs.Fold.recorded then begin
    if mv.Obs.Fold.mv_truncated then
      fail "mv fold claims truncation on a complete trace";
    if mv.Obs.Fold.mv_commits <> List.init n Fun.id then
      fail "mv fold commit set incomplete"
  end;
  List.iter
    (fun l ->
      let r = Checker.check h l in
      match r.Checker.verdict with
      | Checker.Consistent order ->
        if
          l <> Checker.Snapshot_isolation
          && not (Checker.validate_order h l order)
        then fail "%s order does not validate" (Checker.level_name l)
      | Checker.Violation _ ->
        fail "committed history rejected at %s" (Checker.level_name l)
      | Checker.Unknown msg ->
        fail "unknown at %s (%s)" (Checker.level_name l) msg)
    (Checker.levels_upto level);
  (if level = Checker.Snapshot_isolation || level = Checker.Serializability
   then
     let si_order =
       match (Checker.check h Checker.Snapshot_isolation).Checker.verdict with
       | Checker.Consistent o ->
         Checker.validate_order h Checker.Snapshot_isolation o
       | _ -> true (* already reported above *)
     in
     if not si_order then fail "si order does not validate");
  let skew =
    if level <> Checker.Snapshot_isolation then 0
    else
      match (Checker.check h Checker.Serializability).Checker.verdict with
      | Checker.Violation w ->
        if witness_replays h Checker.Serializability w then 1
        else begin
          fail "write-skew witness does not replay";
          0
        end
      | _ -> 0
  in
  let herb =
    if level = Checker.Serializability && n <= 5 && not (Syntax.typed syntax)
    then begin
      if Herbrand.serializable syntax stats.Sched.Driver.output then true
      else begin
        fail "Herbrand oracle rejects a scheduler output";
        false
      end
    end
    else false
  in
  let mfails, mtotal, mrejected =
    if level = Checker.Serializability then check_mutants ~label ~seed h ([], 0, 0)
    else ([], 0, 0)
  in
  ( { runs = acc.runs + 1;
      herbrand_agreed = (acc.herbrand_agreed + if herb then 1 else 0);
      mutants_total = acc.mutants_total + mtotal;
      mutants_rejected = acc.mutants_rejected + mrejected;
      si_write_skews = acc.si_write_skews + skew;
      failures = mfails @ !fails @ acc.failures;
    } )

let empty =
  { runs = 0; herbrand_agreed = 0; mutants_total = 0; mutants_rejected = 0;
    si_write_skews = 0; failures = [] }

let sweep ?(seeds = 100) () =
  let sizes = [| (4, 3); (5, 3); (6, 2); (8, 2) |] in
  let acc = ref empty in
  for seed = 0 to seeds - 1 do
    let n, m = sizes.(seed mod Array.length sizes) in
    let st = Random.State.make [| seed; 0xf00d |] in
    let syntax =
      match seed mod 4 with
      | 0 -> Workload.uniform st ~n ~m ~n_vars:(max 2 (n / 2))
      | 1 -> Workload.hotspot st ~n ~m ~n_vars:(max 2 (n / 2)) ~theta:0.8
      | 2 -> Workload.zipf st ~n ~m ~n_vars:(max 2 (n / 2)) ~s:1.2
      | _ ->
        (* the typed mix that makes snapshot-isolation anomalies
           reachable; see the si write-skew obligation *)
        Workload.mixed st ~n ~m ~n_vars:(max 2 (n / 2)) ~read_frac:0.5
          ~theta:0.5
    in
    List.iter
      (fun (slug, level, mk) ->
        let label = Printf.sprintf "seed %d %s" seed slug in
        acc := check_run ~label ~seed ~level syntax mk !acc)
      (engines syntax)
  done;
  { !acc with failures = List.rev !acc.failures }

let universes =
  [
    [ [ "x" ]; [ "x" ] ];
    [ [ "x"; "y" ]; [ "y"; "x" ] ];
    [ [ "x"; "x" ]; [ "x" ] ];
    [ [ "x"; "y" ]; [ "x"; "y" ]; [ "y" ] ];
    [ [ "x" ]; [ "x" ]; [ "x" ] ];
    [ [ "x"; "y"; "z" ]; [ "z"; "x" ] ];
    [ [ "x"; "y" ]; [ "y"; "z" ]; [ "z"; "x" ] ];
  ]

let exhaustive () =
  let acc = ref empty in
  let fail m = acc := { !acc with failures = m :: !acc.failures } in
  List.iter
    (fun lists ->
      let syntax = Syntax.of_lists lists in
      List.iter
        (fun sched ->
          acc := { !acc with runs = !acc.runs + 1 };
          let label =
            Format.asprintf "%a %a" Syntax.pp syntax Schedule.pp sched
          in
          let label =
            String.concat " " (String.split_on_char '\n' label)
          in
          let herb = Herbrand.serializable syntax sched in
          let h = History.of_schedule syntax sched in
          let consistent l =
            match (Checker.check h l).Checker.verdict with
            | Checker.Consistent _ -> true
            | _ -> false
          in
          (match (Checker.check h Checker.Serializability).Checker.verdict with
          | Checker.Consistent o ->
            if not herb then fail (label ^ ": checker accepts, oracle rejects");
            if not (Checker.validate_order h Checker.Serializability o) then
              fail (label ^ ": order does not validate");
            acc := { !acc with herbrand_agreed = !acc.herbrand_agreed + 1 }
          | Checker.Violation w ->
            if herb then fail (label ^ ": checker rejects, oracle accepts")
            else if not (witness_replays h Checker.Serializability w) then
              fail (label ^ ": witness does not replay")
            else
              acc := { !acc with herbrand_agreed = !acc.herbrand_agreed + 1 }
          | Checker.Unknown msg -> fail (label ^ ": unknown (" ^ msg ^ ")"));
          (* the level ladder is monotone: SER ⊆ SI ⊆ causal ⊆ RA ⊆ RC *)
          let rc = consistent Checker.Read_committed
          and ra = consistent Checker.Read_atomic
          and ca = consistent Checker.Causal
          and si = consistent Checker.Snapshot_isolation
          and se = consistent Checker.Serializability in
          if
            (se && not si) || (si && not ca) || (ca && not ra) || (ra && not rc)
          then fail (label ^ ": level ladder not monotone");
          (* tiny histories: per-level ground truth by enumeration *)
          if Syntax.n_transactions syntax <= 3 then
            List.iter
              (fun l ->
                if Checker.exists_order h l <> consistent l then
                  fail
                    (label ^ ": ground truth mismatch at " ^ Checker.level_name l))
              Checker.levels)
        (Schedule.all (Syntax.format syntax)))
    universes;
  { !acc with failures = List.rev !acc.failures }

(* ---------- the [ccopt check] command ---------- *)

let ( let* ) = Result.bind
let error fmt = Printf.ksprintf (fun m -> Error m) fmt

type request = {
  syntax : string option;
  schedule : string option;
  scheduler : string;
  seed : int;
  capacity : int;
  trace : string option;
  levels : string option;
  mutate : string option;
  budget : int;
  bench : Check_bench.spec option;
  out : string option;
  json : bool;
}

let defaults =
  { syntax = None; schedule = None; scheduler = "sgt"; seed = 42;
    capacity = Trace_run.default_capacity; trace = None; levels = None;
    mutate = None; budget = 2_000_000; bench = None; out = None; json = false }

let parse_levels = function
  | None -> Ok None
  | Some s -> (
    let names = List.filter (fun s -> s <> "") (String.split_on_char ',' s) in
    match List.find_opt (fun nm -> Checker.level_of_name nm = None) names with
    | Some nm ->
      error "ccopt check: unknown level %s (have: %s)" nm
        (String.concat ", " (List.map Checker.level_name Checker.levels))
    | None -> Ok (Some (List.filter_map Checker.level_of_name names)))

(* The history to check, its source line and, for a scheduler run
   without [--levels], the ladder up to the engine's declared level. *)
let source_history r spec syntax levels =
  match (r.trace, r.schedule) with
  | Some file, _ -> (
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error m -> error "ccopt check: %s" m
    | text -> (
      match Obs.Event_log.parse text with
      | Error msg -> error "ccopt check: %s: %s" file msg
      | Ok (events, dropped) -> (
        (* MV-aware: a trace with version events is reconstructed from
           the values the engine served, not by replaying the schedule *)
        let complete = dropped = 0 in
        match history_of_events ~label:file ~complete syntax events with
        | h -> Ok ("trace " ^ file, h, levels)
        | exception Invalid_argument m -> error "ccopt check: %s: %s" file m)))
  | None, Some digits ->
    let h = Schedule.of_interleaving (Analyze.parse_interleaving digits) in
    if not (Schedule.is_schedule_of (Syntax.format syntax) h) then
      error "ccopt check: not a schedule of the syntax"
    else
      let label = spec ^ " @ " ^ digits in
      Ok ("schedule " ^ digits, History.of_schedule ~label syntax h, levels)
  | None, None ->
    let* e = Trace_run.registry_entry r.scheduler in
    let label = Printf.sprintf "%s via %s (seed %d)" spec r.scheduler r.seed in
    let run =
      record ~capacity:r.capacity ~label ~seed:r.seed syntax (fun sink ->
          e.Sched.Registry.make ~sink syntax)
    in
    (* default to the ladder the engine actually guarantees: SI is not
       serializable, and plain [ccopt check --scheduler si] should not
       fail for it *)
    let ladder = Checker.levels_upto (declared_level e) in
    let levels = Option.value levels ~default:ladder in
    Ok ("scheduler " ^ r.scheduler, run.history, Some levels)

let mutate r hist =
  match r.mutate with
  | None -> Ok hist
  | Some name -> (
    match History.mutation_of_name name with
    | None ->
      error "ccopt check: unknown mutation %s (have: %s)" name
        (String.concat ", " (List.map History.mutation_name History.mutations))
    | Some m -> (
      let rng = Random.State.make [| r.seed; 0x6d75 |] in
      match History.mutate m rng hist with
      | Some h -> Ok h
      | None -> error "ccopt check: mutation %s has no applicable site" name))

let command r =
  Trace_run.reply_of
    (let* explicit = parse_levels r.levels in
     match (r.bench, r.syntax) with
     | Some b, _ ->
       (* throughput mode: a generated serializable history; any verdict
          other than Consistent fails the run *)
       let levels = Option.value explicit ~default:Checker.levels in
       let b = { b with Check_bench.seed = r.seed; levels } in
       let rows = Check_bench.run b in
       Ok
         (Trace_run.output_report ~what:"check" r.out
            (if r.json then `Json (Check_bench.to_json b rows)
             else `Text (Format.asprintf "%a" Check_bench.pp_rows rows)))
     | None, None -> error "ccopt check: --syntax is required (unless --bench)"
     | None, Some spec ->
       let syntax = Analyze.parse_syntax spec in
       let* source, hist, levels = source_history r spec syntax explicit in
       let levels = Option.value levels ~default:Checker.levels in
       let* hist = mutate r hist in
       let results = List.map (Checker.check ~budget:r.budget hist) levels in
       let n = History.n hist in
       let stdout =
         if r.json then Checker.to_json ~source hist results ^ "\n"
         else
           Printf.sprintf "history: %s (%d txns, %d events%s)\n"
             (History.label hist) n (History.n_events hist)
             (if History.complete hist then "" else ", truncated")
           ^ String.concat ""
               (List.map (Format.asprintf "%a@." (Checker.pp_result ~n)) results)
       in
       let violated (res : Checker.result) =
         match res.verdict with Checker.Violation _ -> true | _ -> false
       in
       Ok { Trace_run.stdout; stderr = "";
            code = (if List.exists violated results then 1 else 0) })

(* ---------- the [ccopt verify --twopc] pass ---------- *)

let twopc_universes cfg =
  List.map
    (fun n_parts -> (n_parts, Sched.Twopc.universe cfg ~n_parts ~seed:1))
    [ 1; 2; 3 ]

let twopc_grid () =
  let rates = [ 0.; 0.2; 0.5 ] in
  List.concat_map
    (fun crash_rate ->
      List.map
        (fun slow_rate ->
          let svc =
            Sched.Twopc.service ~crash_rate ~slow_rate ~seed:11 ~shards:3 ()
          in
          for tx = 0 to 19 do
            ignore (Sched.Twopc.commit svc ~tx ~shards:[ 0; 1; 2 ])
          done;
          (crash_rate, slow_rate, Sched.Twopc.totals svc))
        rates)
    rates

let verify_twopc () =
  let err = Buffer.create 256 and bad = ref 0 in
  let violation fmt =
    incr bad;
    Printf.bprintf err fmt
  in
  let universes = twopc_universes Sched.Twopc.default in
  List.iter
    (fun (n_parts, rounds) ->
      List.iter
        (fun (_, r, vs) ->
          if vs <> [] then
            violation "ccopt verify: 2PC violation (%d participants):\n%s\n"
              n_parts (Sched.Twopc.witness r vs))
        rounds)
    universes;
  let grid = twopc_grid () in
  List.iter
    (fun (crash_rate, slow_rate, (t : Sched.Twopc.totals)) ->
      if t.rounds <> t.committed + t.aborted then
        violation "ccopt verify: 2PC service accounting broken at rates %g/%g\n"
          crash_rate slow_rate)
    grid;
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  {
    Trace_run.stdout =
      Printf.sprintf
        "2PC AC1-AC5: %d single-fault rounds exhaustively checked, %d \
         fault-matrix service rounds, %d violations\n"
        (sum (fun (_, rounds) -> List.length rounds) universes)
        (sum (fun (_, _, (t : Sched.Twopc.totals)) -> t.rounds) grid)
        !bad;
    stderr = Buffer.contents err;
    code = (if !bad > 0 then 1 else 0);
  }
