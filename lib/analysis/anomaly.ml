open Core

type classification =
  | Lost_update of Names.var
  | Non_repeatable_read of Names.var
  | Write_skew of Names.var * Names.var
  | Dirty_read of Names.var
  | Serialization_cycle

let classification_rule = function
  | Lost_update _ -> "anomaly/lost-update"
  | Non_repeatable_read _ -> "anomaly/non-repeatable-read"
  | Write_skew _ -> "anomaly/write-skew"
  | Dirty_read _ -> "anomaly/dirty-read"
  | Serialization_cycle -> "anomaly/serialization-cycle"

let classification_message = function
  | Lost_update x ->
    Printf.sprintf
      "lost update on %s: a foreign write lands between a read of %s and \
       the dependent write, and is clobbered unseen"
      x x
  | Non_repeatable_read x ->
    Printf.sprintf
      "non-repeatable read of %s: the same transaction reads %s twice \
       around a foreign write"
      x x
  | Write_skew (x, y) ->
    Printf.sprintf
      "write skew on (%s, %s): each transaction reads the variable the \
       other is about to write — anti-dependencies both ways"
      x y
  | Dirty_read x ->
    Printf.sprintf
      "dirty-read-shaped conflict on %s: a transaction reads a value whose \
       writer is still active"
      x
  | Serialization_cycle ->
    "conflict cycle through three or more transactions; no pairwise \
     anomaly pattern applies"

(* ---------- minimal cycles ---------- *)

let minimal_cycle g =
  let n = Digraph.n_vertices g in
  let best = ref None in
  let best_len = ref max_int in
  for v = 0 to n - 1 do
    if Digraph.has_edge g v v then begin
      if 1 < !best_len then begin
        best_len := 1;
        best := Some [ v ]
      end
    end
    else begin
      (* BFS from v; a cycle through v closes on an edge u -> v. *)
      let dist = Array.make n (-1) in
      let parent = Array.make n (-1) in
      dist.(v) <- 0;
      let q = Queue.create () in
      Queue.add v q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun w ->
            if dist.(w) < 0 then begin
              dist.(w) <- dist.(u) + 1;
              parent.(w) <- u;
              Queue.add w q
            end)
          (Digraph.succ g u)
      done;
      List.iter
        (fun u ->
          if u <> v && dist.(u) >= 0 && Digraph.has_edge g u v then
            let len = dist.(u) + 1 in
            if len < !best_len then begin
              let rec path w acc =
                if w = v then v :: acc else path parent.(w) (w :: acc)
              in
              best_len := len;
              best := Some (path u [])
            end)
        (Digraph.pred g v)
    end
  done;
  match !best with
  | None -> None
  | Some cycle ->
    (* rotate so the smallest vertex leads *)
    let m = List.fold_left min (List.hd cycle) cycle in
    let rec rotate = function
      | x :: rest when x = m -> x :: rest
      | x :: rest -> rotate (rest @ [ x ])
      | [] -> []
    in
    Some (rotate cycle)

(* ---------- read/write expansion and conflicts ---------- *)

let expand syntax h =
  Array.concat
    (List.map
       (fun (s : Names.step_id) ->
         let v = Syntax.var syntax s in
         [|
           { Rw_model.id = Names.step s.tx (2 * s.idx);
             action = Rw_model.read v };
           { Rw_model.id = Names.step s.tx ((2 * s.idx) + 1);
             action = Rw_model.write v };
         |])
       (Array.to_list h))

let var_of p (h : Rw_model.history) =
  Rw_model.var_of h.(p).Rw_model.action

let tx_of p (h : Rw_model.history) = h.(p).Rw_model.id.Names.tx

let is_write p (h : Rw_model.history) = Rw_model.is_write h.(p).Rw_model.action

let is_read p h = not (is_write p h)

let conflict_graph n (h : Rw_model.history) =
  let g = Digraph.create n in
  let len = Array.length h in
  for p = 0 to len - 1 do
    for q = p + 1 to len - 1 do
      if
        tx_of p h <> tx_of q h
        && var_of p h = var_of q h
        && (is_write p h || is_write q h)
      then Digraph.add_edge g (tx_of p h) (tx_of q h)
    done
  done;
  g

(* ---------- pattern matching on a two-transaction cycle ---------- *)

let positions pred h =
  let acc = ref [] in
  Array.iteri (fun p _ -> if pred p then acc := p :: !acc) h;
  List.rev !acc

let lost_update h (a, b) =
  (* t reads x at p, t's next action on x is its write at q, and o
     writes x at some m in (p, q). *)
  let check (t, o) =
    List.find_map
      (fun p ->
        let x = var_of p h in
        let next_on_x =
          List.find_opt
            (fun q -> q > p && tx_of q h = t && var_of q h = x)
            (positions (fun q -> q > p) h)
        in
        match next_on_x with
        | Some q when is_write q h ->
          if
            List.exists
              (fun m ->
                m > p && m < q && tx_of m h = o && var_of m h = x
                && is_write m h)
              (positions (fun _ -> true) h)
          then Some x
          else None
        | _ -> None)
      (positions (fun p -> tx_of p h = t && is_read p h) h)
  in
  match check (a, b) with Some x -> Some x | None -> check (b, a)

let non_repeatable h (a, b) =
  let check (t, o) =
    List.find_map
      (fun p ->
        let x = var_of p h in
        List.find_map
          (fun q ->
            if tx_of q h = t && var_of q h = x && is_read q h then
              if
                List.exists
                  (fun m ->
                    m > p && m < q && tx_of m h = o && var_of m h = x
                    && is_write m h)
                  (positions (fun _ -> true) h)
              then Some x
              else None
            else None)
          (positions (fun q -> q > p) h))
      (positions (fun p -> tx_of p h = t && is_read p h) h)
  in
  match check (a, b) with Some x -> Some x | None -> check (b, a)

let rw_edge h t o =
  (* an anti-dependency: t reads x before o writes x *)
  List.find_map
    (fun p ->
      let x = var_of p h in
      if
        List.exists
          (fun q ->
            q > p && tx_of q h = o && var_of q h = x && is_write q h)
          (positions (fun _ -> true) h)
      then Some x
      else None)
    (positions (fun p -> tx_of p h = t && is_read p h) h)

let write_skew h (a, b) =
  match rw_edge h a b with
  | None -> None
  | Some x -> (
    (* a second anti-dependency back, on a different variable *)
    let back =
      List.find_map
        (fun p ->
          let y = var_of p h in
          if
            y <> x
            && List.exists
                 (fun q ->
                   q > p && tx_of q h = a && var_of q h = y && is_write q h)
                 (positions (fun _ -> true) h)
          then Some y
          else None)
        (positions (fun p -> tx_of p h = b && is_read p h) h)
    in
    match back with Some y -> Some (x, y) | None -> None)

let dirty_read h (a, b) =
  let last_write_before q x =
    List.fold_left
      (fun acc m ->
        if m < q && var_of m h = x && is_write m h then Some m else acc)
      None
      (positions (fun _ -> true) h)
  in
  let check (t, o) =
    List.find_map
      (fun q ->
        let x = var_of q h in
        match last_write_before q x with
        | Some p
          when tx_of p h = t
               && List.exists
                    (fun m -> m > q && tx_of m h = t)
                    (positions (fun _ -> true) h) ->
          Some x
        | _ -> None)
      (positions (fun q -> tx_of q h = o && is_read q h) h)
  in
  match check (a, b) with Some x -> Some x | None -> check (b, a)

let classify _n h cycle =
  match cycle with
  | [ a; b ] -> (
    match lost_update h (a, b) with
    | Some x -> Lost_update x
    | None -> (
      match non_repeatable h (a, b) with
      | Some x -> Non_repeatable_read x
      | None -> (
        match write_skew h (a, b) with
        | Some (x, y) -> Write_skew (x, y)
        | None -> (
          match dirty_read h (a, b) with
          | Some x -> Dirty_read x
          | None -> Serialization_cycle))))
  | _ -> Serialization_cycle

(* ---------- the passes ---------- *)

let order_string order =
  String.concat " "
    (List.map (fun i -> "T" ^ string_of_int (i + 1)) (Array.to_list order))

(* For each consecutive cycle edge a -> b, the first pair of steps of the
   base schedule justifying it. *)
let edge_steps syntax h cycle =
  let len = Array.length h in
  let edge a b =
    let found = ref None in
    for p = 0 to len - 1 do
      for q = p + 1 to len - 1 do
        if
          !found = None
          && h.(p).Names.tx = a
          && h.(q).Names.tx = b
          && Syntax.var syntax h.(p) = Syntax.var syntax h.(q)
        then found := Some [ h.(p); h.(q) ]
      done
    done;
    match !found with Some s -> s | None -> []
  in
  let rec around = function
    | a :: (b :: _ as rest) -> edge a b @ around rest
    | [ last ] -> edge last (List.hd cycle)
    | [] -> []
  in
  let pos s =
    let r = ref 0 in
    Array.iteri (fun i x -> if Names.equal_step x s then r := i) h;
    !r
  in
  List.sort_uniq Names.compare_step (around cycle)
  |> List.sort (fun s1 s2 -> compare (pos s1) (pos s2))

let herbrand_cross syntax h ~conflict_verdict =
  let n = Syntax.n_transactions syntax in
  if n > 6 then
    [
      Report.diagnostic ~rule:"anomaly/herbrand-skipped" ~severity:Info
        (Printf.sprintf
           "Herbrand cross-validation skipped: %d transactions would need \
            %d! serial executions"
           n n);
    ]
  else
    let hb = Herbrand.serializable syntax h in
    if hb = conflict_verdict then
      [
        Report.diagnostic ~rule:"anomaly/herbrand-agreement" ~severity:Info
          "brute-force Herbrand test agrees with the conflict-graph \
           verdict (the step model has no blind writes, so the tests \
           provably coincide)";
      ]
    else
      [
        Report.diagnostic ~rule:"anomaly/herbrand-disagreement"
          ~severity:Error
          (Printf.sprintf
             "conflict test says %s but Herbrand brute force says %s — \
              this contradicts the step-model equivalence; please report"
             (if conflict_verdict then "serializable" else "non-serializable")
             (if hb then "serializable" else "non-serializable"));
      ]

let check syntax h =
  if not (Schedule.is_schedule_of (Syntax.format syntax) h) then
    [
      Report.diagnostic ~rule:"anomaly/not-a-schedule" ~severity:Error
        "the given step sequence is not a schedule of the syntax (wrong \
         multiset of steps or per-transaction order violated)";
    ]
  else
    let g = Conflict.graph syntax h in
    match minimal_cycle g with
    | None ->
      let order_msg =
        match Conflict.serialization_orders syntax h with
        | Some order -> ": equivalent serial order " ^ order_string order
        | None -> ""
      in
      Report.diagnostic ~rule:"anomaly/serializable" ~severity:Info
        ("schedule is conflict-serializable" ^ order_msg)
      :: herbrand_cross syntax h ~conflict_verdict:true
    | Some cycle ->
      let rwh = expand syntax h in
      let cls = classify (Syntax.n_transactions syntax) rwh cycle in
      Report.diagnostic ~rule:(classification_rule cls) ~severity:Error
        ~txs:cycle
        ~steps:(edge_steps syntax h cycle)
        ~witness:(Report.Cycle cycle)
        (classification_message cls
        ^ "; the schedule is not serializable (minimal conflict cycle \
           witness attached)")
      :: herbrand_cross syntax h ~conflict_verdict:false

let check_history n (h : Rw_model.history) =
  let g = conflict_graph n h in
  match minimal_cycle g with
  | None ->
    [
      Report.diagnostic ~rule:"anomaly/serializable" ~severity:Info
        "history is conflict-serializable";
    ]
  | Some cycle ->
    let cls = classify n h cycle in
    let steps =
      List.sort_uniq Names.compare_step
        (List.concat_map
           (fun t ->
             List.filter_map
               (fun (s : Rw_model.step) ->
                 if s.id.Names.tx = t then Some s.id else None)
               (Array.to_list h))
           cycle)
    in
    let base =
      Report.diagnostic ~rule:(classification_rule cls) ~severity:Error
        ~txs:cycle ~steps ~witness:(Report.Cycle cycle)
        (classification_message cls
        ^ "; the history is not conflict-serializable")
    in
    if n <= 6 && Rw_model.view_serializable_polygraph n h then
      [
        base;
        Report.diagnostic ~rule:"anomaly/view-serializable" ~severity:Info
          "the history is nevertheless view-serializable (the CSR ⊊ VSR \
           gap: blind writes hide the conflict from any view)";
      ]
    else [ base ]
