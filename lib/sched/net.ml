type 'msg ev =
  | Deliver of { src : int; dst : int; msg : 'msg }
  | Timer of { node : int; tag : int; epoch : int }
  | Recover of { node : int }

type 'msg t = {
  delay : src:int -> dst:int -> float;
  handlers : 'msg handlers;
  (* Time-ordered queue, kept as two parallel arrays: slots
     [head, head + len) hold the pending events by due time, equal
     times in push order. That is the sequence-number tie-break with
     the numbers left implicit: a push is numbered after every pending
     event, so it goes after each one due at the same time. A commit
     round is a few dozen events, each usually due after every pending
     one, so [push] inserts from the tail and shifts the few later
     entries up by one: no cons cell and no tuple per event, and the
     drain order stays obviously deterministic. *)
  mutable times : float array;
  mutable evs : 'msg ev array;
  mutable head : int;
  mutable len : int;
  clock : clock;
  alive : bool array;
  epoch : int array;
  steps : int array;
  plan : (int * float) list array;  (* per node: (at_input, repair) *)
  mutable crashed_n : int;
  mutable delivered_n : int;
}

(* A record of floats only is stored flat, so advancing the clock
   allocates nothing; a float field of ['msg t] would be boxed anew on
   every event. *)
and clock = { mutable now : float }

and 'msg handlers = {
  on_msg : 'msg t -> node:int -> src:int -> 'msg -> unit;
  on_timer : 'msg t -> node:int -> tag:int -> unit;
  on_crash : 'msg t -> node:int -> unit;
  on_recover : 'msg t -> node:int -> unit;
}

(* fills the free slots of [evs] *)
let hole = Recover { node = -1 }
(* initial queue slots: a fault-free 2PC round of 2 participants slides
   within them and never grows them *)
let capacity = 16

let create ~nodes ~delay ?(crashes = []) ~handlers () =
  let plan = Array.make nodes [] in
  (* per-node plans in input order, regardless of list order *)
  List.iter
    (fun (node, at, repair) ->
      if node < 0 || node >= nodes then
        invalid_arg "Net.create: crash plan node out of range";
      plan.(node) <- (at, repair) :: plan.(node))
    (List.rev
       (List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) crashes));
  {
    delay;
    handlers;
    times = Array.make capacity 0.;
    evs = Array.make capacity hole;
    head = 0;
    len = 0;
    clock = { now = 0. };
    alive = Array.make nodes true;
    epoch = Array.make nodes 0;
    steps = Array.make nodes 0;
    plan;
    crashed_n = 0;
    delivered_n = 0;
  }

let now t = t.clock.now
let steps t n = t.steps.(n)
let crashes_triggered t = t.crashed_n
let delivered t = t.delivered_n

(* Make room for one more entry after the tail: when the arrays are
   more than half full double them, otherwise slide the live slots
   down to 0. *)
let make_room t =
  let cap = Array.length t.times in
  if t.head + t.len = cap then begin
    if 2 * t.len > cap then begin
      let grow a fill =
        let b = Array.make (2 * cap) fill in
        Array.blit a t.head b 0 t.len;
        b
      in
      t.times <- grow t.times 0.;
      t.evs <- grow t.evs hole
    end
    else begin
      Array.blit t.times t.head t.times 0 t.len;
      Array.blit t.evs t.head t.evs 0 t.len;
      Array.fill t.evs t.len (cap - t.len) hole
    end;
    t.head <- 0
  end

(* [after] is an offset from now: a float argument is boxed, and the
   callers already hold the offset boxed. *)
let push t ~after ev =
  let at = t.clock.now +. after in
  make_room t;
  (* shift every entry due after [at] up one slot, from the tail *)
  let i = ref (t.head + t.len) in
  while !i > t.head && t.times.(!i - 1) > at do
    t.times.(!i) <- t.times.(!i - 1);
    t.evs.(!i) <- t.evs.(!i - 1);
    decr i
  done;
  t.times.(!i) <- at;
  t.evs.(!i) <- ev;
  t.len <- t.len + 1

let send t ~src ~dst msg =
  if t.alive.(src) then
    push t ~after:(t.delay ~src ~dst) (Deliver { src; dst; msg })

let set_timer t ~node ~tag ~after =
  if t.alive.(node) then
    push t ~after (Timer { node; tag; epoch = t.epoch.(node) })

(* Fell [node] now if its crash plan targets the input it is about to
   process; the input itself is lost. Returns whether it crashed. *)
let maybe_crash t node =
  match t.plan.(node) with
  | (at, repair) :: rest when at <= t.steps.(node) ->
    t.plan.(node) <- rest;
    t.alive.(node) <- false;
    t.epoch.(node) <- t.epoch.(node) + 1;
    t.crashed_n <- t.crashed_n + 1;
    t.handlers.on_crash t ~node;
    push t ~after:repair (Recover { node });
    true
  | _ -> false

let run ?(budget = 100_000) t =
  let rec loop processed =
    if t.len = 0 then `Quiescent
    else if processed >= budget then `Budget_exhausted
    else begin
      let ev = t.evs.(t.head) in
      t.clock.now <- t.times.(t.head);
      t.evs.(t.head) <- hole;
      t.head <- t.head + 1;
      t.len <- t.len - 1;
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
    end
  in
  loop 0
