(* Shared formatting helpers for the benchmark harness. *)

let section id title =
  Printf.printf "\n=== bench: %s — %s ===\n\n" id title

let ratio num den =
  if den = 0 then 0. else float_of_int num /. float_of_int den
