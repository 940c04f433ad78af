(* Command line of the end-to-end benchmark; run.sh builds and calls it.

     main.exe [run] --workload W --seed N --seconds S --trace 0|1
     main.exe compare A.json[:SET] B.json[:SET]

   The last line a run prints is its result as one JSON object. Exit 1
   when a committed output is not serializable or a traced decision
   differs from the untraced one; exit 2 on bad arguments. *)

open E2e

let usage =
  "usage: main.exe [run] [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
  \                      [--trace-out PREFIX] [--smoke] [--list]\n\
  \       main.exe compare A.json[:SET] B.json[:SET]\n"

let slices = 40

(* Timed batches per slice: [seconds] of arrivals at the workload's
   rate, split over the slices. Pacing makes the timed time about
   [seconds] of reference time on any host that keeps up, and the work a
   fixed function of the arguments. *)
let per_slice (w : Workloads.t) ~seconds ~slices =
  let per = w.n * w.m * slices in
  max 1 (((seconds * w.rate) + per - 1) / per)

let run_one ~smoke ~seed ~seconds ~trace ~trace_out (w : Workloads.t) =
  let slices, per_slice =
    if smoke then (2, 2) else (slices, per_slice w ~seconds ~slices)
  in
  Printf.printf "workload %s: %s, %dx%d at %d req/s, seed %d, " w.name
    (Workloads.engine_name w) w.n w.m w.rate seed;
  let r =
    if trace then begin
      let batches = max 1 (slices * (per_slice + 1) / 10) in
      Printf.printf "traced, %d batches\n%!" batches;
      let trace_out = Option.map (fun p -> p ^ w.name ^ ".trace.json") trace_out in
      Harness.trace ?trace_out w ~seed ~batches
    end
    else begin
      Printf.printf "%d slices x (1 warm-up + %d timed batches)\n%!" slices
        per_slice;
      Harness.run w ~seed ~slices ~per_slice
    end
  in
  Harness.pp_table stdout r;
  let line = Harness.to_json r in
  ignore (Json.parse line);
  print_endline line;
  r.correct

let run args =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and trace_out = ref None and smoke = ref false in
  let list = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  timed seconds of arrivals (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1: traced per-layer pass (default 0)");
      ( "--trace-out",
        Arg.String (fun p -> trace_out := Some p),
        "PREFIX  write each workload's first traced batch to PREFIX<workload>.trace.json" );
      ("--smoke", Arg.Set smoke, " 2 slices of 2 batches, both passes");
      ("--list", Arg.Set list, " print the workload names");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) args spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad m ->
    prerr_string m;
    exit 2
  | Arg.Help m ->
    print_string m;
    exit 0);
  let chosen =
    if !workload = "all" then Workloads.all
    else
      match Workloads.find !workload with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "unknown workload %S (have: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
        exit 2
  in
  if !list then List.iter (fun (w : Workloads.t) -> print_endline w.name) chosen
  else begin
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_string usage;
      exit 2
    end;
    let passes = if !smoke then [ false; true ] else [ !trace = 1 ] in
    let ok =
      List.for_all Fun.id
        (List.concat_map
           (fun w ->
             List.map
               (fun trace ->
                 run_one ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~trace
                   ~trace_out:!trace_out w)
               passes)
           chosen)
    in
    if not ok then exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: [ a; b ] -> (
    match Compare.run ~benchmark:"BENCHMARK.json" a b with
    | true -> ()
    | false -> exit 1
    | exception (Json.Error m | Sys_error m) ->
      prerr_endline m;
      exit 2)
  | _ :: "compare" :: _ ->
    prerr_string usage;
    exit 2
  | prog :: "run" :: rest | prog :: rest -> run (Array.of_list (prog :: rest))
  | [] -> run [| "main.exe" |]
