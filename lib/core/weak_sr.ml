type verdict =
  | Weakly_serializable of int list list
  | Refuted of State.t

module Smap = Map.Make (struct
  type t = State.t

  let compare = State.compare
end)

let reachable_finals ?max_len ?(max_states = 200_000) sys e =
  let n = System.n_transactions sys in
  let max_len = match max_len with Some l -> l | None -> n + 2 in
  (* BFS over global states; edges = serial execution of one complete
     transaction. Depth-first by level so witnesses are shortest. *)
  let seen = ref (Smap.singleton e []) in
  let frontier = ref [ (e, []) ] in
  let level = ref 0 in
  while !frontier <> [] && !level < max_len && Smap.cardinal !seen < max_states do
    incr level;
    let next = ref [] in
    List.iter
      (fun (g, path) ->
        for i = 0 to n - 1 do
          let g' = Exec.run_transaction sys g i in
          if not (Smap.mem g' !seen) then begin
            let path' = path @ [ i ] in
            seen := Smap.add g' path' !seen;
            next := (g', path') :: !next
          end
        done)
      !frontier;
    frontier := List.rev !next
  done;
  Smap.bindings !seen

let check ?max_len ?max_states sys ~probes h =
  let rec go acc = function
    | [] -> Weakly_serializable (List.rev acc)
    | e :: rest -> (
      let final = Exec.run sys e h in
      let reach = reachable_finals ?max_len ?max_states sys e in
      match
        List.find_opt (fun (g, _) -> State.equal g final) reach
      with
      | Some (_, witness) -> go (witness :: acc) rest
      | None -> Refuted e)
  in
  go [] probes

let is_weakly_serializable ?max_len ?max_states sys ~probes h =
  match check ?max_len ?max_states sys ~probes h with
  | Weakly_serializable _ -> true
  | Refuted _ -> false

let default_probes ?(count = 25) ~seed sys =
  let domains = sys.System.domains in
  let product =
    List.fold_left
      (fun acc (_, d) ->
        match acc, Expr.Value.enumerate d with
        | Some p, Some vs when p * List.length vs <= 4096 ->
          Some (p * List.length vs)
        | _, _ -> None)
      (Some 1) domains
  in
  match product with
  | Some _ -> (
    match State.enumerate domains with
    | Some states -> states
    | None -> assert false)
  | None ->
    let st = Random.State.make [| seed |] in
    List.init count (fun _ -> State.sample st ~bound:8 domains)
