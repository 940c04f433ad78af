type run_state = {
  pc : int array;
  locals : Expr.Value.t option array array;
  globals : State.t;
}

let start sys g =
  List.iter
    (fun (v, d) ->
      match State.get g v with
      | value ->
        if not (Expr.Value.mem d value) then
          invalid_arg
            (Printf.sprintf "Exec.start: %s=%s outside its domain" v
               (Expr.Value.to_string value))
      | exception Not_found ->
        invalid_arg ("Exec.start: initial state does not bind " ^ v))
    sys.System.domains;
  let fmt = System.format sys in
  {
    pc = Array.make (Array.length fmt) 0;
    locals = Array.map (fun m -> Array.make m None) fmt;
    globals = g;
  }

let eligible st (id : Names.step_id) =
  id.tx >= 0 && id.tx < Array.length st.pc && st.pc.(id.tx) = id.idx

exception Not_eligible of Names.step_id

let exec_step sys st (id : Names.step_id) =
  if not (eligible st id) then raise (Not_eligible id);
  let x = Syntax.var sys.System.syntax id in
  let t_read = State.get st.globals x in
  let locals = Array.copy st.locals in
  locals.(id.tx) <- Array.copy locals.(id.tx);
  locals.(id.tx).(id.idx) <- Some t_read;
  let lookup k =
    match locals.(id.tx).(k) with
    | Some v -> v
    | None -> raise (Expr.Ast.Type_error "undeclared local")
  in
  let written =
    Expr.Ast.eval ~locals:lookup
      ~globals:(fun _ -> raise (Expr.Ast.Type_error "global in phi"))
      (System.phi sys id)
  in
  let pc = Array.copy st.pc in
  pc.(id.tx) <- id.idx + 1;
  { pc; locals; globals = State.set st.globals x written }

let run sys g h =
  let st = Array.fold_left (fun st id -> exec_step sys st id) (start sys g) h in
  st.globals

let run_trace sys g h =
  let st = ref (start sys g) in
  Array.to_list
    (Array.map
       (fun id ->
         st := exec_step sys !st id;
         !st.globals)
       h)

let run_transaction sys g i =
  let m = (System.format sys).(i) in
  let h = Array.init m (fun j -> Names.step i j) in
  (* run on a fresh start so program counters begin at 0 *)
  run sys g h

let run_concatenation sys g txs =
  List.fold_left (fun g i -> run_transaction sys g i) g txs

let correct_schedule sys ~probes h =
  List.for_all
    (fun g ->
      (not (System.consistent sys g)) || System.consistent sys (run sys g h))
    probes

let transaction_correct sys ~probes i =
  List.for_all
    (fun g ->
      (not (System.consistent sys g))
      || System.consistent sys (run_transaction sys g i))
    probes

let basic_assumption sys ~probes =
  let n = System.n_transactions sys in
  let rec go i = i >= n || (transaction_correct sys ~probes i && go (i + 1)) in
  go 0
