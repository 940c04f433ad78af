(* [compare A B]: for each (workload, end-to-end metric) the medians of
   both sides, the relative change, each side's spread (interquartile
   range over median) and a verdict against the bound BENCHMARK.json
   fixes. A results file is a JSON array of runs
   [{"set", "workload", "seed", "result"}], as sweep.sh writes it;
   "FILE:SET" keeps the runs of one set. *)

type bound = { name : string; lower_better : bool; bound : float }

let read_file path = In_channel.with_open_text path In_channel.input_all

let bad what = raise (Json.Error what)

let bounds benchmark =
  match Json.member "end_to_end" (Json.parse (read_file benchmark)) with
  | Some (Json.Arr ms) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
        | Some (Str name), Some (Str better), Some (Num bound) ->
          { name; lower_better = better = "lower"; bound }
        | _ -> bad "malformed end_to_end entry")
      ms
  | _ -> bad (benchmark ^ ": no end_to_end list")

let runs spec =
  let path, set =
    match String.rindex_opt spec ':' with
    | Some i ->
      (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | None -> (spec, None)
  in
  match Json.parse (read_file path) with
  | Arr rs ->
    List.filter
      (fun r ->
        match set with None -> true | Some s -> Json.member "set" r = Some (Str s))
      rs
  | _ -> bad (path ^ ": not a JSON array of runs")

let workload r =
  match Json.member "workload" r with Some (Str w) -> w | _ -> bad "run without workload"

let result r = match Json.member "result" r with Some v -> v | None -> bad "run without result"

let values runs ~workload:w ~metric =
  List.filter_map
    (fun r ->
      if workload r <> w then None
      else
        match Json.member "metrics" (result r) with
        | Some ms -> (
          match Option.bind (Json.member metric ms) (Json.member "value") with
          | Some (Num v) -> Some v
          | _ -> None)
        | None -> None)
    runs
  |> Array.of_list

let all_correct runs =
  List.for_all (fun r -> Json.member "correct" (result r) = Some (Bool true)) runs

(* Prints the table; [true] when every run is correct and no metric's
   median got worse than its bound. *)
let run ~benchmark a b =
  let bounds = bounds benchmark in
  let ra = runs a and rb = runs b in
  let workloads = List.sort_uniq compare (List.map workload (ra @ rb)) in
  let ok = ref (all_correct ra && all_correct rb) in
  if not !ok then print_endline "some run reported correct = false";
  Printf.printf "%-9s %-14s %14s %14s %8s %7s %7s %6s  verdict\n" "workload" "metric"
    "median A" "median B" "change" "IQR A" "IQR B" "bound";
  List.iter
    (fun w ->
      List.iter
        (fun bd ->
          let va = values ra ~workload:w ~metric:bd.name in
          let vb = values rb ~workload:w ~metric:bd.name in
          if va = [||] || vb = [||] then begin
            ok := false;
            Printf.printf "%-9s %-14s missing on one side\n" w bd.name
          end
          else begin
            let ma = Stats.median va and mb = Stats.median vb in
            let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
            let worse = if bd.lower_better then change else -.change in
            let breach = worse > bd.bound in
            if breach then ok := false;
            Printf.printf "%-9s %-14s %14.6g %14.6g %+7.2f%% %6.2f%% %6.2f%% %5.1f%%  %s\n" w
              bd.name ma mb (100. *. change)
              (100. *. Stats.spread va)
              (100. *. Stats.spread vb)
              (100. *. bd.bound)
              (if breach then "BREACH" else "ok")
          end)
        bounds)
    workloads;
  !ok
