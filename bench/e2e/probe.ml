(* Measurement from outside the library: the clock, a span stack around
   the calls into each layer, and a counting event sink. Only the traced
   pass uses spans and the sink; the untraced pass reads the clock. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let words () = int_of_float (Gc.minor_words ())

(* Span kinds, with the layer each belongs to. A batch span holds the
   driver's [submit]/[drain] spans, which hold the engine's callbacks,
   which hold 2PC rounds (called from [attempt]). *)
let batch = 0
let submit = 1
let drain = 2
let attempt = 3
let commit = 4
let on_abort = 5
let commit_cross = 6
let kind_names =
  [| "batch"; "submit"; "drain"; "attempt"; "commit"; "on_abort"; "commit_cross" |]
let layer_names = [| "gen"; "driver"; "driver"; "sched"; "sched"; "sched"; "twopc" |]
let n_kinds = Array.length kind_names

(* Event slots of the counting sink. *)
let ev_delayed = 0
let ev_granted = 1
let ev_aborted = 2
let ev_edge = 3
let ev_refused = 4
let ev_commute = 5
let ev_commute_skipped = 6
let ev_routed = 7
let ev_twopc_sent = 8
let ev_other = 9

let slot : Obs.Event.t -> int = function
  | Delayed _ -> ev_delayed
  | Granted _ -> ev_granted
  | Aborted _ -> ev_aborted
  | Edge_added _ -> ev_edge
  | Cycle_refused _ -> ev_refused
  | Commute_pass _ -> ev_commute
  | Shard_routed _ -> ev_routed
  | Twopc_sent _ -> ev_twopc_sent
  | _ -> ev_other

type span = { kind : int; id : int; parent : int; t0 : int; t1 : int }

let max_depth = 8

type t = {
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  self_words : int array;
  events : int array;
  (* the open spans, innermost at [depth - 1] *)
  st_kind : int array;
  st_id : int array;
  st_t0 : int array;
  st_w0 : int array;
  st_child_ns : int array;
  st_child_w : int array;
  mutable depth : int;
  mutable next_id : int;
  mutable record : bool;  (** keep finished spans for the Chrome trace *)
  mutable spans : span list;
}

let create () =
  let k () = Array.make n_kinds 0 and s () = Array.make max_depth 0 in
  {
    calls = k ();
    total_ns = k ();
    self_ns = k ();
    self_words = k ();
    events = Array.make (ev_other + 1) 0;
    st_kind = s ();
    st_id = s ();
    st_t0 = s ();
    st_w0 = s ();
    st_child_ns = s ();
    st_child_w = s ();
    depth = 0;
    next_id = 0;
    record = false;
    spans = [];
  }

let enter p kind =
  let d = p.depth in
  p.st_kind.(d) <- kind;
  p.st_id.(d) <- p.next_id;
  p.next_id <- p.next_id + 1;
  p.st_child_ns.(d) <- 0;
  p.st_child_w.(d) <- 0;
  p.depth <- d + 1;
  p.st_w0.(d) <- words ();
  p.st_t0.(d) <- now ()

(* Close the innermost span: its duration goes to the kind's total, the
   part no child span covers to its self time (and likewise for minor
   words allocated), and the whole duration to the parent's children. *)
let leave p =
  let t1 = now () in
  let w1 = words () in
  let d = p.depth - 1 in
  p.depth <- d;
  let k = p.st_kind.(d) in
  let dur = t1 - p.st_t0.(d) and w = w1 - p.st_w0.(d) in
  p.calls.(k) <- p.calls.(k) + 1;
  p.total_ns.(k) <- p.total_ns.(k) + dur;
  p.self_ns.(k) <- p.self_ns.(k) + dur - p.st_child_ns.(d);
  p.self_words.(k) <- p.self_words.(k) + w - p.st_child_w.(d);
  if d > 0 then begin
    p.st_child_ns.(d - 1) <- p.st_child_ns.(d - 1) + dur;
    p.st_child_w.(d - 1) <- p.st_child_w.(d - 1) + w
  end;
  if p.record then
    p.spans <-
      {
        kind = k;
        id = p.st_id.(d);
        parent = (if d > 0 then p.st_id.(d - 1) else -1);
        t0 = p.st_t0.(d);
        t1;
      }
      :: p.spans

(* After an exception (a driver stall) the open spans are dropped. *)
let unwind p = p.depth <- 0

let timed p kind f x =
  enter p kind;
  let r = f x in
  leave p;
  r

(* The engine with every callback inside a span. *)
let wrap p (s : Sched.Scheduler.t) =
  {
    s with
    attempt = timed p attempt s.attempt;
    commit = timed p commit s.commit;
    on_abort = timed p on_abort s.on_abort;
  }

let wrap_cross p (f : Workloads.cross) : Workloads.cross =
 fun ~tx ~shards ->
  enter p commit_cross;
  let r = f ~tx ~shards in
  leave p;
  r

(* One sink for the engine, the driver and the 2PC service: an int per
   event constructor, so counting allocates nothing. *)
let sink p =
  {
    Obs.Sink.now = 0.;
    enabled = true;
    emit =
      (fun _ ev ->
        let k = slot ev in
        p.events.(k) <- p.events.(k) + 1;
        match ev with
        | Commute_pass { skipped; _ } ->
          p.events.(ev_commute_skipped) <- p.events.(ev_commute_skipped) + skipped
        | _ -> ());
  }

(* The recorded spans as Chrome [trace_event] JSON, microseconds from
   the first span's start: a begin and an end event per span, in time
   order. At equal times ends come first, a parent (smaller id) begins
   before its child and ends after it. *)
let chrome p =
  let origin = List.fold_left (fun acc s -> min acc s.t0) max_int p.spans in
  let event ph t s =
    {
      Obs.Trace_export.name = kind_names.(s.kind);
      cat = layer_names.(s.kind);
      ph;
      ts = float_of_int (t - origin) /. 1e3;
      pid = 1;
      tid = 1;
      args = (if ph = 'B' then [ ("id", Int s.id); ("parent", Int s.parent) ] else []);
    }
  in
  List.concat_map
    (fun s -> [ ((s.t0, 1, s.id), event 'B' s.t0 s); ((s.t1, 0, -s.id), event 'E' s.t1 s) ])
    p.spans
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd |> Obs.Trace_export.chrome_of_entries
