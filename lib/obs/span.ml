type phase = Scheduling | Waiting | Executing

type cell = {
  mutable active : bool;
  mutable finished : bool;
  mutable start : float;
  mutable last : float;         (* end of the last closed phase *)
  mutable current : phase;      (* meaningful when active && not finished *)
  mutable scheduling : float;
  mutable waiting : float;
  mutable execution : float;
}

type t = cell array

let fresh () =
  {
    active = false;
    finished = false;
    start = 0.;
    last = 0.;
    current = Scheduling;
    scheduling = 0.;
    waiting = 0.;
    execution = 0.;
  }

let create n = Array.init n (fun _ -> fresh ())
let started t i = t.(i).active

(* Credit [now - last] to the open phase. The elapsed invariant is
   structural: every credited interval abuts the previous one, so the
   three accumulators tile [start, last] exactly. *)
let close c ~now =
  if now < c.last then invalid_arg "Obs.Span: clock moved backwards";
  let d = now -. c.last in
  (match c.current with
  | Scheduling -> c.scheduling <- c.scheduling +. d
  | Waiting -> c.waiting <- c.waiting +. d
  | Executing -> c.execution <- c.execution +. d);
  c.last <- now

let enter t i ~now phase =
  let c = t.(i) in
  if c.finished then invalid_arg "Obs.Span.enter: span already finished";
  if not c.active then begin
    c.active <- true;
    c.start <- now;
    c.last <- now
  end;
  close c ~now;
  c.current <- phase

let finish t i ~now =
  let c = t.(i) in
  if c.finished then invalid_arg "Obs.Span.finish: span already finished";
  if not c.active then invalid_arg "Obs.Span.finish: span never started";
  close c ~now;
  c.finished <- true

type breakdown = {
  scheduling : float;
  waiting : float;
  execution : float;
  elapsed : float;
}

let breakdown t i =
  let c : cell = t.(i) in
  {
    scheduling = c.scheduling;
    waiting = c.waiting;
    execution = c.execution;
    elapsed = (if c.active then c.last -. c.start else 0.);
  }

let totals t =
  Array.fold_left
    (fun acc (c : cell) ->
      {
        scheduling = acc.scheduling +. c.scheduling;
        waiting = acc.waiting +. c.waiting;
        execution = acc.execution +. c.execution;
        elapsed =
          acc.elapsed +. (if c.active then c.last -. c.start else 0.);
      })
    { scheduling = 0.; waiting = 0.; execution = 0.; elapsed = 0. }
    t
