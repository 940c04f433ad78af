type action = { op : Op.t; var : Names.var }

let read v = { op = Op.Read; var = v }
let write v = { op = Op.Write; var = v }

type step = { id : Names.step_id; action : action }

type history = step array

let make per_tx =
  Array.of_list
    (List.concat
       (List.mapi
          (fun i actions ->
            List.mapi (fun j a -> { id = Names.step i j; action = a }) actions)
          per_tx))

let interleave per_tx order =
  let per_tx = Array.of_list (List.map Array.of_list per_tx) in
  let n = Array.length per_tx in
  let next = Array.make n 0 in
  let h =
    Array.map
      (fun i ->
        if i < 0 || i >= n || next.(i) >= Array.length per_tx.(i) then
          invalid_arg "Rw_model.interleave: bad occurrence counts";
        let j = next.(i) in
        next.(i) <- j + 1;
        { id = Names.step i j; action = per_tx.(i).(j) })
      order
  in
  if Array.exists2 (fun k tx -> k <> Array.length tx) next per_tx then
    invalid_arg "Rw_model.interleave: incomplete interleaving";
  h

let var_of a = a.var

let is_write a = Op.writes a.op

let n_of_history h =
  Array.fold_left (fun acc s -> max acc (s.id.Names.tx + 1)) 0 h

let conflict_serializable n h =
  let n = max n (n_of_history h) in
  let g = Digraph.create n in
  let len = Array.length h in
  for p = 0 to len - 1 do
    for q = p + 1 to len - 1 do
      let a = h.(p) and b = h.(q) in
      if
        a.id.Names.tx <> b.id.Names.tx
        && String.equal a.action.var b.action.var
        && Commute.conflicts a.action.op b.action.op
      then Digraph.add_edge g a.id.Names.tx b.id.Names.tx
    done
  done;
  not (Digraph.has_cycle g)

(* The reads-from relation: for every observing read, the id of the
   write it reads (None = the initial value); plus the final writer of
   every variable. An [Update] both reads (before) and writes. *)
let view_facts h =
  let last_writer : (Names.var, Names.step_id) Hashtbl.t = Hashtbl.create 8 in
  let reads = ref [] in
  Array.iter
    (fun s ->
      let { op; var = v } = s.action in
      if Op.observes op then
        reads := (s.id, Hashtbl.find_opt last_writer v) :: !reads;
      if Op.writes op then Hashtbl.replace last_writer v s.id)
    h;
  let finals =
    Hashtbl.fold (fun v id acc -> (v, id) :: acc) last_writer []
    |> List.sort compare
  in
  (List.sort compare !reads, finals)

let view_equivalent _n h h' = view_facts h = view_facts h'

let per_tx_actions n h =
  let buckets = Array.make n [] in
  Array.iter
    (fun s -> buckets.(s.id.Names.tx) <- s.action :: buckets.(s.id.Names.tx))
    h;
  Array.map List.rev buckets

let serial_history actions order =
  Array.of_list
    (List.concat_map
       (fun i ->
         List.mapi (fun j a -> { id = Names.step i j; action = a }) actions.(i))
       (Array.to_list order))

let exists_serial_equiv equiv n h =
  let n = max n (n_of_history h) in
  let actions = per_tx_actions n h in
  Combin.Perm.exists n (fun order -> equiv (serial_history actions order) h)

let view_serializable n h = exists_serial_equiv (view_equivalent n) n h

(* The polygraph test. Transactions 0..n-1, node n = the initial writer
   T0, node n+1 = the final reader Tf. *)
let view_serializable_polygraph n h =
  let n = max n (n_of_history h) in
  let t0 = n and tf = n + 1 in
  (* augmented reads-from: every read names its writer (t0 for initial),
     and Tf reads every variable from its final writer *)
  let reads, finals = view_facts h in
  let writer = function Some (id : Names.step_id) -> id.Names.tx | None -> t0 in
  let var_of_read (id : Names.step_id) =
    let s = Array.to_list h |> List.find (fun s -> s.id = id) in
    s.action.var
  in
  (* A read preceded by its own transaction's write of the variable
     reads that write in EVERY serial order. If the history disagrees it
     cannot be view-serializable; if it agrees the pair constrains
     nothing (hence the i <> j filter below). *)
  let own_earlier_write (id : Names.step_id) v =
    Array.exists
      (fun s ->
        s.id.Names.tx = id.Names.tx
        && s.id.Names.idx < id.Names.idx
        && Op.writes s.action.op
        && String.equal s.action.var v)
      h
  in
  let forced_self_violated =
    List.exists
      (fun ((id : Names.step_id), w) ->
        own_earlier_write id (var_of_read id) && writer w <> id.Names.tx)
      reads
  in
  (* Operation-level view equivalence: a cross-transaction read must see
     the writing transaction's LAST write of that variable — in a serial
     order nothing of T_j can follow the write T_i reads. *)
  let last_own_write j v =
    Array.fold_left
      (fun acc s ->
        if
          s.id.Names.tx = j
          && Op.writes s.action.op
          && String.equal s.action.var v
        then Some s.id
        else acc)
      None h
  in
  let reads_nonfinal_write =
    List.exists
      (fun ((id : Names.step_id), w) ->
        match w with
        | Some (wid : Names.step_id) when wid.Names.tx <> id.Names.tx ->
          last_own_write wid.Names.tx (var_of_read id) <> Some wid
        | Some _ | None -> false)
      reads
  in
  let reads_from_vars =
    List.map
      (fun ((id : Names.step_id), w) ->
        (writer w, id.Names.tx, var_of_read id))
      reads
    @ List.map (fun (v, (id : Names.step_id)) -> (id.Names.tx, tf, v)) finals
    |> List.filter (fun (i, j, _) -> i <> j)
  in
  (* writers of each variable, T0 included *)
  let writers v =
    t0
    :: (Array.to_list h
       |> List.filter_map (fun s ->
              if Op.writes s.action.op && String.equal s.action.var v then
                Some s.id.Names.tx
              else None))
    |> List.sort_uniq Int.compare
  in
  let fixed =
    (* T0 precedes and Tf follows everything *)
    List.concat_map (fun i -> [ (t0, i); (i, tf) ]) (List.init n Fun.id)
    @ [ (t0, tf) ]
    @ List.map (fun (i, j, _) -> (i, j)) reads_from_vars
    |> List.sort_uniq compare
  in
  let choices =
    List.concat_map
      (fun (i, j, v) ->
        List.filter_map
          (fun k -> if k <> i && k <> j then Some ((k, i), (j, k)) else None)
          (writers v))
      reads_from_vars
    |> List.sort_uniq compare
  in
  let g = Digraph.create (n + 2) in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) fixed;
  if forced_self_violated || reads_nonfinal_write || Digraph.has_cycle g then
    false
  else begin
    (* backtracking over the choice pairs *)
    let rec solve g = function
      | [] -> true
      | ((a1, b1), (a2, b2)) :: rest ->
        let try_edge a b =
          if Digraph.has_edge g a b then solve g rest
          else begin
            let g' = Digraph.copy g in
            Digraph.add_edge g' a b;
            (not (Digraph.has_cycle g')) && solve g' rest
          end
        in
        try_edge a1 b1 || try_edge a2 b2
    in
    solve g choices
  end

(* Final-state (symbolic) semantics: a write produces an uninterpreted
   term in everything its transaction has read so far; reads of
   transactions that never influence a surviving write are dead. *)
type term =
  | T_init of Names.var
  | T_write of Names.step_id * term list

let final_terms h =
  let n = n_of_history h in
  let read_so_far = Array.make n [] in
  let current : (Names.var, term) Hashtbl.t = Hashtbl.create 8 in
  let value v =
    match Hashtbl.find_opt current v with Some t -> t | None -> T_init v
  in
  Array.iter
    (fun s ->
      let { op; var = v } = s.action in
      if Op.observes op then
        read_so_far.(s.id.Names.tx) <- value v :: read_so_far.(s.id.Names.tx);
      if Op.writes op then
        Hashtbl.replace current v
          (T_write (s.id, List.rev read_so_far.(s.id.Names.tx))))
    h;
  let vars =
    Array.to_list h
    |> List.map (fun s -> s.action.var)
    |> List.sort_uniq String.compare
  in
  List.map (fun v -> (v, value v)) vars

let final_state_equivalent _n h h' = final_terms h = final_terms h'

let final_state_serializable n h =
  exists_serial_equiv (final_state_equivalent n) n h

let csr_implies_vsr_witness () =
  (* R1(x) W2(x) W1(x) W3(x): the conflict graph has the 2-cycle
     T1 <-> T2, yet the history is view-equivalent to T1 T2 T3. *)
  let t1 = [ read "x"; write "x" ] in
  let t2 = [ write "x" ] in
  let t3 = [ write "x" ] in
  (3, interleave [ t1; t2; t3 ] [| 0; 1; 0; 2 |])

let vsr_not_fsr_witness () =
  (* T1 only reads; T2 blindly writes both variables. The history
     W2(x) R1(x) R1(y) W2(y) gives T1 a mixed view that no serial order
     reproduces, but T1's reads are dead, so the final state is serial. *)
  let t1 = [ read "x"; read "y" ] in
  let t2 = [ write "x"; write "y" ] in
  (2, interleave [ t1; t2 ] [| 1; 0; 0; 1 |])

let pp ppf h =
  Format.fprintf ppf "(";
  Array.iteri
    (fun k s ->
      if k > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%c%d(%s)"
        (Char.uppercase_ascii (Op.to_char s.action.op))
        (s.id.Names.tx + 1) s.action.var)
    h;
  Format.fprintf ppf ")"
