type 'msg ev =
  | Deliver of { src : int; dst : int; msg : 'msg }
  | Timer of { node : int; tag : int; epoch : int }
  | Recover of { node : int }

type 'msg t = {
  delay : src:int -> dst:int -> float;
  handlers : 'msg handlers;
  (* Time-ordered queue with a sequence tie-break, kept as a sorted
     list: a commit round is a few dozen events, so O(n) insertion
     beats a heap's constant factor and keeps the drain order obviously
     deterministic. [push] compares the float times and int sequence
     numbers directly: a polymorphic compare on a (time, seq) pair would
     allocate the pair and call the generic comparison per element. *)
  mutable queue : (float * int * 'msg ev) list;
  mutable seq : int;
  mutable time : float;
  alive : bool array;
  epoch : int array;
  steps : int array;
  plan : (int * float) Queue.t array;  (* per node: (at_input, repair) *)
  mutable crashed_n : int;
  mutable delivered_n : int;
}

and 'msg handlers = {
  on_msg : 'msg t -> node:int -> src:int -> 'msg -> unit;
  on_timer : 'msg t -> node:int -> tag:int -> unit;
  on_crash : 'msg t -> node:int -> unit;
  on_recover : 'msg t -> node:int -> unit;
}

let create ~nodes ~delay ?(crashes = []) ~handlers () =
  let plan = Array.init nodes (fun _ -> Queue.create ()) in
  (* per-node plans in input order, regardless of list order *)
  List.iter
    (fun (node, at, repair) ->
      if node < 0 || node >= nodes then
        invalid_arg "Net.create: crash plan node out of range";
      Queue.add (at, repair) plan.(node))
    (List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) crashes);
  {
    delay;
    handlers;
    queue = [];
    seq = 0;
    time = 0.;
    alive = Array.make nodes true;
    epoch = Array.make nodes 0;
    steps = Array.make nodes 0;
    plan;
    crashed_n = 0;
    delivered_n = 0;
  }

let now t = t.time
let alive t n = t.alive.(n)
let steps t n = t.steps.(n)
let crashes_triggered t = t.crashed_n
let delivered t = t.delivered_n

let push t at ev =
  let seq = t.seq in
  t.seq <- seq + 1;
  let rec ins = function
    | [] -> [ (at, seq, ev) ]
    | ((bt, bs, _) as b) :: rest ->
      if bt < at || (bt = at && bs <= seq) then b :: ins rest
      else (at, seq, ev) :: b :: rest
  in
  t.queue <- ins t.queue

let send t ~src ~dst msg =
  if t.alive.(src) then
    push t (t.time +. t.delay ~src ~dst) (Deliver { src; dst; msg })

let set_timer t ~node ~tag ~after =
  if t.alive.(node) then
    push t (t.time +. after) (Timer { node; tag; epoch = t.epoch.(node) })

(* Fell [node] now if its crash plan targets the input it is about to
   process; the input itself is lost. Returns whether it crashed. *)
let maybe_crash t node =
  match Queue.peek_opt t.plan.(node) with
  | Some (at, repair) when at <= t.steps.(node) ->
    ignore (Queue.pop t.plan.(node));
    t.alive.(node) <- false;
    t.epoch.(node) <- t.epoch.(node) + 1;
    t.crashed_n <- t.crashed_n + 1;
    t.handlers.on_crash t ~node;
    push t (t.time +. repair) (Recover { node });
    true
  | _ -> false

let run ?(budget = 100_000) t =
  let rec loop processed =
    match t.queue with
    | [] -> `Quiescent
    | _ when processed >= budget -> `Budget_exhausted
    | (tm, _, ev) :: rest ->
      t.queue <- rest;
      t.time <- tm;
      (match ev with
      | Deliver { src; dst; msg } ->
        if t.alive.(dst) && not (maybe_crash t dst) then begin
          t.steps.(dst) <- t.steps.(dst) + 1;
          t.delivered_n <- t.delivered_n + 1;
          t.handlers.on_msg t ~node:dst ~src msg
        end
      | Timer { node; tag; epoch } ->
        if t.alive.(node) && epoch = t.epoch.(node) && not (maybe_crash t node)
        then begin
          t.steps.(node) <- t.steps.(node) + 1;
          t.handlers.on_timer t ~node ~tag
        end
      | Recover { node } ->
        t.alive.(node) <- true;
        t.handlers.on_recover t ~node);
      loop (processed + 1)
  in
  loop 0
