(* Exact order statistics over raw samples, and the open-loop pacing
   arithmetic. Quantiles are taken from the samples themselves, never
   from [Obs.Hist]: its log2 buckets report bucket upper bounds, so a
   p99 near a power of two would read 2x apart from run to run. *)

(* Nearest-rank quantile of an ascending array: the smallest sample with
   at least [ceil (q * n)] samples at or below it. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* First and third quartile by the same rule as Python's
   [statistics.quantiles (data, n=4)] (method "exclusive"), which is how
   run-to-run spread is judged against a metric's bound. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: needs two samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let cut i =
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 3)

(* Interquartile range as a share of the median; 0 for fewer than two
   values or a zero median. *)
let spread xs =
  if Array.length xs < 2 then 0.
  else
    let q1, q3 = quartiles xs in
    let m = median xs in
    if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Gap between arrivals, in wall ns, for [rate] requests per reference
   second when wall time runs [factor] times reference time. *)
let period_ns ~rate ~factor = factor *. 1e9 /. float_of_int rate

(* Due time of arrival [i] of a batch that starts at [t0] (ns).
   Computed from [i] each time, not by adding up a rounded period, so
   the schedule never drifts. *)
let due_ns ~t0 ~period i = t0 + Float.to_int (Float.round (float_of_int i *. period))
