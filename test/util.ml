(* Shared helpers for the test suite. *)

let qsuite cases = List.map QCheck_alcotest.to_alcotest cases

let check_true name b = Alcotest.(check bool) name true b
let check_false name b = Alcotest.(check bool) name false b
let check_int name expected actual = Alcotest.(check int) name expected actual

(* [needle] occurs in [hay]. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A deterministic RNG per test to keep failures reproducible. *)
let rng seed = Random.State.make [| 0xC0FFEE; seed |]

(* Generator for a format (m_1..m_n) with n in [1..max_n], m in [1..max_m]. *)
let format_gen ~max_n ~max_m =
  QCheck.Gen.(
    int_range 1 max_n >>= fun n ->
    array_size (return n) (int_range 1 max_m))

(* Generator for a syntax over [n_vars] variables. *)
let var_names = [| "x"; "y"; "z"; "u"; "v"; "w" |]

let syntax_gen ~max_n ~max_m ~n_vars =
  QCheck.Gen.(
    format_gen ~max_n ~max_m >>= fun fmt ->
    let tx m = array_size (return m) (map (fun i -> var_names.(i)) (int_range 0 (n_vars - 1))) in
    let rec build i acc =
      if i < 0 then return (Core.Syntax.make (Array.of_list acc))
      else tx fmt.(i) >>= fun t -> build (i - 1) (t :: acc)
    in
    build (Array.length fmt - 1) [])

(* Generator for a schedule of a given format, as an interleaving drawn
   uniformly. *)
let schedule_of_format_gen fmt =
  QCheck.Gen.(
    map
      (fun seed ->
        let st = Random.State.make [| seed |] in
        Core.Schedule.random st fmt)
      int)

(* A syntax together with one of its schedules. *)
let syntax_and_schedule_gen ~max_n ~max_m ~n_vars =
  QCheck.Gen.(
    syntax_gen ~max_n ~max_m ~n_vars >>= fun syntax ->
    schedule_of_format_gen (Core.Syntax.format syntax) >>= fun h ->
    return (syntax, h))

let arbitrary_syntax_and_schedule ~max_n ~max_m ~n_vars =
  QCheck.make
    ~print:(fun (s, h) ->
      Format.asprintf "%a / %a" Core.Syntax.pp s Core.Schedule.pp h)
    (syntax_and_schedule_gen ~max_n ~max_m ~n_vars)

(* ---------- seed-minimizing shrinker for the seeded sweeps ---------- *)

(* Binary-search the shortest failing prefix of an arrival stream:
   [fails] must hold on the full stream; the search maintains "prefix of
   length [hi] fails" as an invariant, so the returned prefix is
   guaranteed failing even when failure is not monotone in the prefix
   length (it is then a local, not global, minimum — good enough for a
   reproduction). O(log n) re-runs instead of O(n). *)
let minimal_failing_prefix ~fails arrivals =
  let n = Array.length arrivals in
  let lo = ref 1 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fails (Array.sub arrivals 0 mid) then hi := mid else lo := mid + 1
  done;
  Array.sub arrivals 0 !hi

let pp_arrivals arrivals =
  String.concat ""
    (Array.to_list (Array.map (fun tx -> string_of_int (tx + 1)) arrivals))

(* Sweep step with shrinking: when [fails] holds on [arrivals], shrink
   to a minimal failing prefix and fail the Alcotest case with a
   reproduction line ([repro] renders the prefix into a command or
   description the log reader can replay directly). *)
let check_sweep ~name ~repro ~fails arrivals =
  if fails arrivals then begin
    let small = minimal_failing_prefix ~fails arrivals in
    Alcotest.failf "%s: minimal failing prefix of %d/%d arrivals: %s\n  reproduce: %s"
      name (Array.length small) (Array.length arrivals) (pp_arrivals small)
      (repro small)
  end

(* The refusals a graph engine searched for over a corpus of (syntax,
   arrivals): [Cycle_refused] events of each traced driver run, counted
   by [Obs.Fold]. Deterministic per corpus, so tests pin it. *)
let refusal_count create corpus =
  List.fold_left
    (fun acc (syntax, arrivals) ->
      let c = Obs.Sink.Memory.create () in
      let sink = Obs.Sink.Memory.sink c in
      ignore
        (Sched.Driver.run ~sink (create ~sink syntax)
           ~fmt:(Core.Syntax.format syntax) ~arrivals:(Array.copy arrivals));
      acc + (Obs.Fold.counters (Obs.Sink.Memory.events c)).Obs.Fold.refusals)
    0 corpus

(* Hot-spot mixes over three variables, two arrival streams each: most
   streams stall and abort, which is where removal does its work. *)
let abort_heavy_corpus seeds =
  List.concat_map
    (fun seed ->
      let st = Random.State.make [| 0xAB07; seed |] in
      let n = 6 + Random.State.int st 6 in
      let m = 3 + Random.State.int st 4 in
      let syntax = Sim.Workload.hotspot st ~n ~m ~n_vars:3 ~theta:0.7 in
      List.init 2 (fun _ ->
          (syntax, Combin.Interleave.random st (Core.Syntax.format syntax))))
    (List.init seeds Fun.id)

(* The partition as a step-by-step reference builds it: each step's
   shard looked up by name in a string table, hashed at the name's first
   use, each transaction's mask from its steps' shards, and the member
   lists, shard-local ids and cross ids by searching those in
   transaction order. *)
let reference_partition syntax shards =
  let open Core in
  let fmt = Syntax.format syntax in
  let tbl = Hashtbl.create 16 in
  let shard v =
    match Hashtbl.find_opt tbl v with
    | Some s -> s
    | None ->
      let s = Hashtbl.hash v mod shards in
      Hashtbl.add tbl v s;
      s
  in
  let shard_of_step =
    Array.mapi
      (fun i m -> Array.init m (fun j -> shard (Syntax.var syntax (Names.step i j))))
      fmt
  in
  let mask =
    Array.map (Array.fold_left (fun m s -> m lor (1 lsl s)) 0) shard_of_step
  in
  let touches s i = mask.(i) land (1 lsl s) <> 0 in
  let txs = List.init (Array.length fmt) Fun.id in
  let shard_ids = List.init shards Fun.id in
  let members =
    Array.of_list
      (List.map (fun s -> Array.of_list (List.filter (touches s) txs)) shard_ids)
  in
  let index_in a i =
    Option.value ~default:(-1) (Array.find_index (Int.equal i) a)
  in
  let local_id =
    Array.map (fun mem -> Array.of_list (List.map (index_in mem) txs)) members
  in
  let n_touched i = List.length (List.filter (fun s -> touches s i) shard_ids) in
  let cross = Array.of_list (List.map (fun i -> n_touched i > 1) txs) in
  let crossing = Array.of_list (List.filter (fun i -> cross.(i)) txs) in
  let cross_id = Array.of_list (List.map (index_in crossing) txs) in
  (shard_of_step, mask, cross, cross_id, members, local_id)

(* [Partition.make] at K = [shards] matches the reference: its fields,
   [cross_id >= 0] as the cross-shard test, and its [local_id] lookup
   at every (shard, transaction). *)
let partition_matches_reference syntax shards =
  let p = Sched.Partition.make ~syntax ~shards in
  let shard_of_step, mask, cross, cross_id, members, local =
    reference_partition syntax shards
  in
  let open Sched.Partition in
  Array.map (Array.map (Array.get p.shard_of_var)) p.ids = shard_of_step
  && p.mask = mask
  && Array.map (fun c -> c >= 0) p.cross_id = cross
  && p.cross_id = cross_id
  && p.n_cross = Array.fold_left max (-1) cross_id + 1
  && p.members = members
  && Array.init shards (fun s -> Array.init p.n (local_id p s)) = local
