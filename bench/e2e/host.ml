(* Host speed. On a shared host the same code runs in speed regimes that
   switch every few seconds to minutes: memory-heavy code slows by up to
   2x while a register-only loop does not. A fixed loop that allocates
   short-lived lists slows by about the same factor as the engines, so
   the benchmark samples it before every batch and measures in reference
   time: wall time divided by [factor], the loop's recent median time
   over its time on an undisturbed host (README.md has the data). *)

let iterations = 200

(* [sample ()] on an undisturbed 2-vCPU Xeon VM at 2.0 GHz. *)
let reference_ns = 10_000.

let window = 15
let sink = ref 0

let sample () =
  let t0 = Probe.now () in
  let acc = ref 0 in
  for i = 1 to iterations do
    acc := !acc + List.fold_left ( + ) 0 (List.init 8 (fun j -> i + j))
  done;
  sink := !acc;
  Probe.now () - t0

let recent = Array.make window 0.
let next = ref (-1)

(* Take [k] more samples and return the current factor: the median of
   the last [window] samples over [reference_ns]. The median drops the
   samples a garbage collection or an interrupt landed in. *)
let factor k =
  if !next < 0 then begin
    (* warm the loop's code and the minor heap first *)
    for _ = 1 to 300 do
      ignore (sample ())
    done;
    Array.iteri (fun i _ -> recent.(i) <- float_of_int (sample ())) recent;
    next := 0
  end;
  for _ = 1 to k do
    recent.(!next) <- float_of_int (sample ());
    next := (!next + 1) mod window
  done;
  Stats.median recent /. reference_ns
