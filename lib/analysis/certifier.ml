open Core

type level = Format_only | Syntactic

let level_string = function
  | Format_only -> "format-only"
  | Syntactic -> "syntactic"

let max_h = 800

let max_candidates = 500_000

let certify ?(k = 2) ~name ~make ~level syntax =
  let fmt = Syntax.format syntax in
  let vars =
    match level with Format_only -> [ "x" ] | Syntactic -> Syntax.vars syntax
  in
  let n_c = Optimality.Universe.candidates ~k ~fmt ~vars in
  let n_h = Schedule.count fmt in
  let skipped why =
    [
      Report.diagnostic ~rule:"certify/skipped" ~severity:Report.Info
        ("certification skipped: " ^ why);
    ]
  in
  if n_h > max_h then
    skipped (Printf.sprintf "|H| = %d exceeds the bound %d" n_h max_h)
  else if n_c > max_candidates then
    skipped
      (Printf.sprintf "the universe has %s candidate systems, over the bound %d"
         (if n_c = max_int then "too many" else string_of_int n_c)
         max_candidates)
  else
    let systems =
      match level with
      | Format_only -> Optimality.Universe.systems ~k ~fmt ~vars ()
      | Syntactic ->
        Optimality.Universe.systems ~k ~syntaxes:[ syntax ] ~fmt ~vars ()
    in
    let probes = Optimality.Universe.states ~k ~vars in
    let bound, universe_size =
      Optimality.Verify.intersection_c ~probes systems fmt
    in
    let p = Sched.Driver.fixpoint_of make fmt in
    let in_bound h = List.exists (Schedule.equal h) bound in
    let violations = List.filter (fun h -> not (in_bound h)) p in
    let slack =
      List.length
        (List.filter
           (fun h -> not (List.exists (Schedule.equal h) p))
           bound)
    in
    match violations with
    | [] ->
      [
        Report.diagnostic ~rule:"certify/information-bound"
          ~severity:Report.Info
          (Printf.sprintf
             "%s respects the Theorem 1 bound at the %s level over Z_%d: \
              |P| = %d ⊆ |∩C| = %d (universe of %d systems, slack %d — \
              optimal iff 0)"
             name (level_string level) k (List.length p)
             (List.length bound) universe_size slack);
      ]
    | vs ->
      List.map
        (fun h ->
          Report.diagnostic ~rule:"certify/information-bound"
            ~severity:Report.Error
            ~witness:(Report.History h)
            (Format.asprintf
               "%s passes %a with zero delay, but some system at its %s \
                information level (Z_%d universe, %d systems) rejects it \
                — the Theorem 1 bound P ⊆ ∩C(T') is violated"
               name Schedule.pp h (level_string level) k universe_size))
        vs
