(* Tests for the central scheduler registry: every front end resolves
   schedulers through [Sched.Registry], so the table itself must be
   sound — every constructor works, lookup round-trips names and slugs
   case-insensitively, and the error message on an unknown scheduler
   lists everything that would have been accepted. *)

open Util
open Core

let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ]

let test_every_entry_constructs () =
  (* each registered constructor yields a working scheduler: drive it
     over the crossing workload and insist the driver terminates with
     the full output *)
  List.iter
    (fun (e : Sched.Registry.entry) ->
      let s = e.Sched.Registry.make syntax in
      check_true (e.Sched.Registry.name ^ " names itself")
        (s.Sched.Scheduler.name <> "");
      let fmt = Syntax.format syntax in
      let stats =
        Sched.Driver.run (e.Sched.Registry.make syntax) ~fmt
          ~arrivals:[| 0; 1; 0; 1 |]
      in
      check_true
        (e.Sched.Registry.name ^ " serves all steps")
        (Schedule.is_schedule_of fmt stats.Sched.Driver.output))
    Sched.Registry.all

let test_lookup_round_trips () =
  List.iter
    (fun (e : Sched.Registry.entry) ->
      let hit key =
        match Sched.Registry.find key with
        | Some e' -> e'.Sched.Registry.slug = e.Sched.Registry.slug
        | None -> false
      in
      check_true (e.Sched.Registry.name ^ " by name") (hit e.Sched.Registry.name);
      check_true (e.Sched.Registry.slug ^ " by slug") (hit e.Sched.Registry.slug);
      check_true
        (e.Sched.Registry.slug ^ " case-insensitive")
        (hit (String.uppercase_ascii e.Sched.Registry.name)
        && hit (String.uppercase_ascii e.Sched.Registry.slug)))
    Sched.Registry.all;
  check_true "unknown misses" (Sched.Registry.find "nope" = None)

let test_slugs_unique_and_derived () =
  let slugs = List.map (fun e -> e.Sched.Registry.slug) Sched.Registry.all in
  check_int "slugs unique" (List.length slugs)
    (List.length (List.sort_uniq compare slugs));
  check_true "names = slugs in order" (Sched.Registry.names = slugs);
  List.iter
    (fun (e : Sched.Registry.entry) ->
      check_true
        (e.Sched.Registry.name ^ " slug derived")
        (Sched.Registry.slug_of_name e.Sched.Registry.name
        = e.Sched.Registry.slug))
    Sched.Registry.all;
  check_true "prime spelled out"
    (Sched.Registry.slug_of_name "2PL'" = "2pl-prime")

let test_standard_subset () =
  check_true "standard is a sub-list"
    (List.for_all
       (fun (e : Sched.Registry.entry) ->
         List.memq e Sched.Registry.all && e.Sched.Registry.standard)
       Sched.Registry.standard);
  (* the reference oracle stays out of the standard suite but remains
     addressable by name *)
  check_true "sgt-ref registered, not standard"
    (match Sched.Registry.find "sgt-ref" with
    | Some e -> not e.Sched.Registry.standard
    | None -> false);
  check_true "sharded is standard"
    (match Sched.Registry.find "sharded" with
    | Some e -> e.Sched.Registry.standard
    | None -> false)

let test_declared_levels () =
  (* every declared level resolves in the checker's ladder, and the
     multi-version family is registered, standard, and declares the
     guarantees its conformance tests enforce *)
  List.iter
    (fun (e : Sched.Registry.entry) ->
      check_true
        (e.Sched.Registry.slug ^ " level resolves")
        (Analysis.Checker.level_of_name e.Sched.Registry.level <> None))
    Sched.Registry.all;
  List.iter
    (fun (slug, level) ->
      match Sched.Registry.find slug with
      | Some e ->
        check_true (slug ^ " standard") e.Sched.Registry.standard;
        check_true
          (slug ^ " declares " ^ level)
          (e.Sched.Registry.level = level)
      | None -> check_true (slug ^ " registered") false)
    [ ("mvcc", "causal"); ("si", "si"); ("ssi", "ser"); ("sgt", "ser") ]

let test_find_exn_lists_names () =
  match Sched.Registry.find_exn "no-such-engine" with
  | _ -> check_true "should have raised" false
  | exception Invalid_argument msg ->
    check_true "mentions the key"
      (String.length msg > 0 && String.index_opt msg '"' <> None);
    (* every accepted slug appears in the message *)
    List.iter
      (fun slug ->
        check_true ("lists " ^ slug) (contains msg slug))
      Sched.Registry.names

let test_trace_run_uses_registry () =
  (* any registered scheduler — standard or not — round-trips through
     the trace pipeline's [only] selection *)
  let spec =
    {
      Sim.Trace_run.label = "xy,yx";
      syntax;
      seed = 42;
      capacity = Sim.Trace_run.default_capacity;
      samples = 20;
      only = [ "sgt-ref"; "SHARDED" ];
    }
  in
  let runs = Sim.Trace_run.execute spec in
  check_true "non-standard and standard both resolve"
    (List.map (fun r -> r.Sim.Trace_run.slug) runs = [ "sgt-ref"; "sharded" ])

let suite =
  [
    Alcotest.test_case "every entry constructs and runs" `Quick
      test_every_entry_constructs;
    Alcotest.test_case "lookup round-trips name and slug" `Quick
      test_lookup_round_trips;
    Alcotest.test_case "slugs unique and derived" `Quick
      test_slugs_unique_and_derived;
    Alcotest.test_case "standard subset flags" `Quick test_standard_subset;
    Alcotest.test_case "declared consistency levels" `Quick
      test_declared_levels;
    Alcotest.test_case "find_exn lists every name" `Quick
      test_find_exn_lists_names;
    Alcotest.test_case "trace pipeline resolves via registry" `Quick
      test_trace_run_uses_registry;
  ]
