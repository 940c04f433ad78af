open Core

type spec = {
  label : string;
  syntax : Syntax.t;
  seed : int;
  capacity : int;
  samples : int;
  only : string list;
}

let default_capacity = 1 lsl 16

type run = {
  name : string;
  slug : string;
  n : int;
  stats : Sched.Driver.stats;
  events : (float * Obs.Event.t) list;
  dropped : int;
  counters : Obs.Fold.counters;
  totals : Obs.Span.breakdown;
  wait_hist : Obs.Hist.t;
  zero_delay_fraction : float;
  chrome : string;
}

(* Any registered scheduler round-trips through [only], not just the
   standard suite: the registry is the single name table. *)
let select spec =
  match spec.only with
  | [] -> Sched.Registry.standard
  | only -> List.map Sched.Registry.find_exn only

let execute spec =
  let fmt = Syntax.format spec.syntax in
  let n = Array.length fmt in
  let st = Random.State.make [| spec.seed |] in
  let arrivals = Combin.Interleave.random st fmt in
  List.map
    (fun e ->
      let ring = Obs.Sink.Ring.create ~capacity:spec.capacity in
      let sink = Obs.Sink.Ring.sink ring in
      let stats =
        Sched.Driver.run ~sink
          (e.Sched.Registry.make ~sink spec.syntax)
          ~fmt ~arrivals
      in
      let events = Obs.Sink.Ring.events ring in
      let dropped = Obs.Sink.Ring.dropped ring in
      let counters = Obs.Fold.counters events in
      let totals = Obs.Span.totals (Obs.Fold.spans ~n events) in
      let wait_hist = Obs.Fold.wait_histogram events in
      let zero_delay_fraction =
        Sched.Driver.zero_delay_fraction
          (fun () -> e.Sched.Registry.make spec.syntax)
          ~fmt ~samples:spec.samples ~seed:spec.seed
      in
      let chrome = Obs.Trace_export.chrome events in
      {
        name = e.Sched.Registry.name;
        slug = e.Sched.Registry.slug;
        n;
        stats;
        events;
        dropped;
        counters;
        totals;
        wait_hist;
        zero_delay_fraction;
        chrome;
      })
    (select spec)

let mismatches r =
  if r.dropped > 0 then []
  else begin
    let s = r.stats and c = r.counters in
    let check label trace stat acc =
      if trace = stat then acc
      else Printf.sprintf "%s: trace %d vs stats %d" label trace stat :: acc
    in
    []
    |> check "grants" c.Obs.Fold.grants s.Sched.Driver.grants
    |> check "delays" c.Obs.Fold.delays s.Sched.Driver.delays
    |> check "restarts" c.Obs.Fold.restarts s.Sched.Driver.restarts
    |> check "deadlocks" c.Obs.Fold.deadlocks s.Sched.Driver.deadlocks
    |> check "waiting" c.Obs.Fold.waiting s.Sched.Driver.waiting
    |> check "commits" c.Obs.Fold.commits r.n
    |> (fun acc ->
         if Obs.Fold.zero_delay c = Sched.Driver.zero_delay s then acc
         else "zero-delay: trace and stats disagree" :: acc)
    |> List.rev
  end

let pp_summary ppf runs =
  Format.fprintf ppf "%-8s %8s %6s %6s %8s %9s %7s %7s %6s %6s %7s@."
    "sched" "zero-dly" "grants" "delays" "restarts" "deadlocks" "waiting"
    "t-sched" "t-wait" "t-exec" "elapsed";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-8s %8.3f %6d %6d %8d %9d %7d %7.0f %6.0f %6.0f %7.0f@." r.name
        r.zero_delay_fraction r.stats.Sched.Driver.grants
        r.stats.Sched.Driver.delays r.stats.Sched.Driver.restarts
        r.stats.Sched.Driver.deadlocks r.stats.Sched.Driver.waiting
        r.totals.Obs.Span.scheduling r.totals.Obs.Span.waiting
        r.totals.Obs.Span.execution r.totals.Obs.Span.elapsed)
    runs;
  List.iter
    (fun r ->
      Format.fprintf ppf "wait %-8s %a@." r.name Obs.Hist.pp r.wait_hist)
    runs

module J = Obs.Json

let json_summary spec runs =
  let run r =
    let q p =
      match Obs.Hist.quantile r.wait_hist p with
      | Some v -> J.int v
      | None -> J.Null
    in
    let s = r.stats and t = r.totals in
    J.Obj
      [
        ("name", J.Str r.name);
        ("slug", J.Str r.slug);
        ("zero_delay_fraction", J.num "%.4f" r.zero_delay_fraction);
        ("grants", J.int s.Sched.Driver.grants);
        ("delays", J.int s.Sched.Driver.delays);
        ("restarts", J.int s.Sched.Driver.restarts);
        ("deadlocks", J.int s.Sched.Driver.deadlocks);
        ("waiting", J.int s.Sched.Driver.waiting);
        ("zero_delay", J.Bool (Sched.Driver.zero_delay s));
        ( "spans",
          J.Obj
            [
              ("scheduling", J.num "%.1f" t.Obs.Span.scheduling);
              ("waiting", J.num "%.1f" t.Obs.Span.waiting);
              ("execution", J.num "%.1f" t.Obs.Span.execution);
              ("elapsed", J.num "%.1f" t.Obs.Span.elapsed);
            ] );
        ( "wait",
          J.Obj
            [
              ("count", J.int (Obs.Hist.count r.wait_hist));
              ("mean", J.num "%.3f" (Obs.Hist.mean r.wait_hist));
              ("p50", q 0.5);
              ("p99", q 0.99);
            ] );
        ("events", J.int (List.length r.events));
        ("dropped", J.int r.dropped);
        ("trace_matches_stats", J.Bool (mismatches r = []));
      ]
  in
  J.compact ~spaced:true
    (J.Obj
       [
         (* one version stamp across every machine-readable report *)
         ("schema_version", J.int Analysis.Report.schema_version);
         ("syntax", J.Str spec.label);
         ("seed", J.int spec.seed);
         ("capacity", J.int spec.capacity);
         ("samples", J.int spec.samples);
         ("schedulers", J.Arr (List.map run runs));
       ])

(* ---------- the [ccopt trace] command ---------- *)

type reply = { stdout : string; stderr : string; code : int }

let reply_of = function
  | Ok r -> r
  | Error m -> { stdout = ""; stderr = m ^ "\n"; code = 1 }

let unknown_scheduler name =
  Printf.sprintf "ccopt: unknown scheduler %s (have: %s)" name
    (String.concat ", " Sched.Registry.names)

let registry_entry name =
  Option.to_result ~none:(unknown_scheduler name) (Sched.Registry.find name)

(* writes [body] to [file] and returns the line that says so; a file
   that cannot be written is a usage error *)
let write_file file body =
  match Out_channel.with_open_bin file (fun oc -> output_string oc body) with
  | () -> Ok (Printf.sprintf "wrote %s\n" file)
  | exception Sys_error m ->
    (* an open failure's message already starts with the file name *)
    let m =
      if String.starts_with ~prefix:(file ^ ": ") m then m else file ^ ": " ^ m
    in
    Error ("ccopt: cannot write " ^ m)

let ok stdout = { stdout; stderr = ""; code = 0 }

let output_report ~what out report =
  let body =
    match report with
    | `Text body -> Ok body
    | `Json j ->
      let read f = In_channel.with_open_bin f In_channel.input_all in
      let j =
        match Option.map read out with
        | Some existing -> Obs.Json.merge ~existing j
        | None | (exception Sys_error _) -> j
      in
      let body = Obs.Json.pretty j in
      if Obs.Json.parse body <> None then Ok body
      else Error ("ccopt: internal error: " ^ what ^ " emitted malformed JSON")
  in
  match (body, out) with
  | Error m, _ -> reply_of (Error m)
  | Ok body, None -> ok body
  | Ok body, Some file -> reply_of (Result.map ok (write_file file body))

type request = { spec : spec; out : string option; json : bool }

let command { spec; out; json } =
  match List.find_opt (fun nm -> Sched.Registry.find nm = None) spec.only with
  | Some nm -> reply_of (Error (unknown_scheduler nm))
  | None ->
    let runs = execute spec in
    (* the trace is only worth shipping if it is a faithful witness *)
    let bad =
      List.concat_map
        (fun run ->
          List.map (Printf.sprintf "ccopt trace: %s: %s\n" run.name)
            (mismatches run
            @
            if Obs.Json.parse run.chrome = None then
              [ "malformed Chrome trace JSON" ]
            else []))
        runs
    in
    if bad <> [] then { stdout = ""; stderr = String.concat "" bad; code = 1 }
    else
      let files =
        match out with
        | None -> []
        | Some prefix ->
          List.concat_map
            (fun run ->
              let file ext = prefix ^ "-" ^ run.slug ^ ext in
              (* the machine-readable twin: an exact event log that
                 [ccopt check --trace] can replay *)
              let log = Obs.Event_log.to_string ~dropped:run.dropped run.events in
              [ (file ".json", run.chrome); (file ".events", log) ])
            runs
      in
      (* stops at the first file that cannot be written *)
      let wrote =
        List.fold_left
          (fun acc (file, body) ->
            Result.bind acc (fun lines ->
                Result.map (( ^ ) lines) (write_file file body)))
          (Ok "") files
      in
      let summary =
        if json then json_summary spec runs ^ "\n"
        else Format.asprintf "%a" pp_summary runs
      in
      reply_of (Result.map (fun wrote -> ok (wrote ^ summary)) wrote)
