open Core

type arcs = Expr.Ast.t array array

let ic_arcs sys =
  match sys.System.ic with
  | System.Pred e ->
    Array.map
      (fun m ->
        Array.init (m + 1) (fun k ->
            if k = 0 || k = m then e else Expr.Ast.bool true))
      (System.format sys)
  | System.Trivial | System.Sat _ ->
    invalid_arg "Assertional.ic_arcs: needs a Pred integrity constraint"

let holds g e =
  Expr.Value.bool
    (Expr.Ast.eval
       ~locals:(fun _ -> raise (Expr.Ast.Type_error "local in assertion"))
       ~globals:(fun v -> State.get g v)
       e)

let create ~system ~arcs ~initial () =
  let fmt = System.format system in
  let n = Array.length fmt in
  if Array.length arcs <> n then invalid_arg "Assertional.create: arcs size";
  Array.iteri
    (fun i a ->
      if Array.length a <> fmt.(i) + 1 then
        invalid_arg "Assertional.create: arc count mismatch")
    arcs;
  let globals = ref initial in
  let pc = Array.make n 0 in
  let locals = Array.map (fun m -> Array.make m None) fmt in
  let undo : (Names.var * Expr.Value.t) list array = Array.make n [] in
  let apply (id : Names.step_id) =
    (* returns (new globals, value read) without committing *)
    let x = Syntax.var system.System.syntax id in
    let read = State.get !globals x in
    let lookup k =
      if k = id.Names.idx then read
      else
        match locals.(id.Names.tx).(k) with
        | Some v -> v
        | None -> raise (Expr.Ast.Type_error "undeclared local")
    in
    let written =
      Expr.Ast.eval ~locals:lookup
        ~globals:(fun _ -> raise (Expr.Ast.Type_error "global in phi"))
        (System.phi system id)
    in
    (State.set !globals x written, read)
  in
  let attempt (id : Names.step_id) =
    match apply id with
    | exception Expr.Ast.Type_error _ -> Scheduler.Delay
    | g', _ ->
      let ok = ref true in
      for j = 0 to n - 1 do
        if j <> id.Names.tx && not (holds g' arcs.(j).(pc.(j))) then ok := false
      done;
      if !ok then Scheduler.Grant else Scheduler.Delay
  in
  let commit (id : Names.step_id) =
    let i = id.Names.tx in
    let x = Syntax.var system.System.syntax id in
    let g', read = apply id in
    undo.(i) <- (x, State.get !globals x) :: undo.(i);
    locals.(i).(id.Names.idx) <- Some read;
    pc.(i) <- id.Names.idx + 1;
    globals := g'
  in
  let on_abort i =
    (* back the transaction up: restore its writes, newest first *)
    List.iter (fun (x, v) -> globals := State.set !globals x v) undo.(i);
    undo.(i) <- [];
    Array.fill locals.(i) 0 (Array.length locals.(i)) None;
    pc.(i) <- 0
  in
  ( Scheduler.make ~name:"assertional" ~attempt ~commit ~on_abort (),
    fun () -> !globals )
