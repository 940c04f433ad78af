type ic =
  | Pred of Expr.Ast.t
  | Sat of string * (State.t -> bool)
  | Trivial

type t = {
  syntax : Syntax.t;
  interp : Expr.Ast.t array array;
  domains : (Names.var * Expr.Value.domain) list;
  ic : ic;
}

let validate syntax interp =
  let fmt = Syntax.format syntax in
  if Array.length interp <> Array.length fmt then
    invalid_arg "System.make: interpretation/format transaction count mismatch";
  Array.iteri
    (fun i phis ->
      if Array.length phis <> fmt.(i) then
        invalid_arg
          (Printf.sprintf "System.make: transaction %d has %d steps but %d interpretations"
             (i + 1) fmt.(i) (Array.length phis));
      Array.iteri
        (fun j phi ->
          if Expr.Ast.max_local phi > j then
            invalid_arg
              (Printf.sprintf
                 "System.make: phi_%d%d uses a local variable not yet declared"
                 (i + 1) (j + 1));
          if Expr.Ast.globals_used phi <> [] then
            invalid_arg
              (Printf.sprintf
                 "System.make: phi_%d%d mentions a global variable directly"
                 (i + 1) (j + 1)))
        phis)
    interp

let make ?(domains = []) ?(ic = Trivial) syntax interp =
  validate syntax interp;
  let all_domains =
    List.map
      (fun v ->
        match List.assoc_opt v domains with
        | Some d -> (v, d)
        | None -> (v, Expr.Value.Ints))
      (Syntax.vars syntax)
  in
  { syntax; interp = Array.map Array.copy interp; domains = all_domains; ic }

let format t = Syntax.format t.syntax

let n_transactions t = Syntax.n_transactions t.syntax

let phi t (id : Names.step_id) =
  if
    id.tx < 0
    || id.tx >= Array.length t.interp
    || id.idx < 0
    || id.idx >= Array.length t.interp.(id.tx)
  then invalid_arg "System.phi: step out of range";
  t.interp.(id.tx).(id.idx)

let consistent t g =
  match t.ic with
  | Trivial -> true
  | Sat (_, p) -> p g
  | Pred e ->
    Expr.Value.bool
      (Expr.Ast.eval
         ~locals:(fun _ -> raise (Expr.Ast.Type_error "IC uses a local"))
         ~globals:(fun v -> State.get g v)
         e)

(* Syntactic classification of a step interpretation. [φ] may only
   mention locals (validated), so [locals_used c = []] means closed. *)
let classify j (e : Expr.Ast.t) =
  if Expr.Ast.is_identity_of j e then Op.Read
  else
    match e with
    | Add (Local k, c) when k = j && Expr.Ast.locals_used c = [] -> Op.Incr
    | Add (c, Local k) when k = j && Expr.Ast.locals_used c = [] -> Op.Incr
    | Sub (Local k, c) when k = j && Expr.Ast.locals_used c = [] -> Op.Decr
    | If (Lt (Local k, c), c', Local k')
      when k = j && k' = j
           && Expr.Ast.locals_used c = []
           && Expr.Ast.equal c c' ->
      Op.Max
    | e ->
      if Expr.Ast.depends_on_local j e then Op.Update else Op.Write

let step_kind t id =
  let e = phi t id in
  let j = id.Names.idx in
  let base = classify j e in
  if Op.observes base then base
  else begin
    (* A blind or semantic classification is only sound while the value
       the step read stays unobservable: if any later φ of the same
       transaction uses this local, the op's read leaks and commuting it
       past other writers would change that observation — demote. *)
    let phis = t.interp.(id.Names.tx) in
    let leaked = ref false in
    for k = j + 1 to Array.length phis - 1 do
      if Expr.Ast.depends_on_local j phis.(k) then leaked := true
    done;
    if !leaked then Op.Update else base
  end

(* The canonical interpretation of a declared operation: the simplest φ
   that [classify] maps back to the op ([Enqueue] is the exception — its
   bag-insert is modelled as adding a per-step element token, which
   reads back as [Incr]; both sit in a commutative monoid, so the
   concrete oracle still exercises exactly the commutativity the
   scheduler assumed). Constants differ per step so distinct blind
   writes stay distinguishable. *)
let canonical_phi ~tx ~idx (op : Op.t) : Expr.Ast.t =
  let open Expr.Ast in
  match op with
  | Op.Read -> Local idx
  | Op.Update -> Add (Mul (Local idx, int 2), int ((tx + 1) * 10 + idx + 1))
  | Op.Write -> int ((tx + 1) * 1000 + idx + 1)
  | Op.Incr -> Add (Local idx, int 1)
  | Op.Decr -> Sub (Local idx, int 1)
  | Op.Enqueue -> Add (Local idx, int ((tx + 1) * 100 + idx + 1))
  | Op.Max ->
    let c = int ((tx + 1) * 10 + idx) in
    If (Lt (Local idx, c), c, Local idx)

let of_syntax ?domains ?ic syntax =
  let interp =
    Array.init (Syntax.n_transactions syntax) (fun tx ->
        Array.init (Syntax.length syntax tx) (fun idx ->
            canonical_phi ~tx ~idx (Syntax.kind syntax (Names.step tx idx))))
  in
  make ?domains ?ic syntax interp

let pp_ic ppf = function
  | Trivial -> Format.pp_print_string ppf "true"
  | Sat (name, _) -> Format.fprintf ppf "<%s>" name
  | Pred e -> Expr.Ast.pp ppf e

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i phis ->
      Array.iteri
        (fun j phi ->
          if i > 0 || j > 0 then Format.fprintf ppf "@ ";
          Format.fprintf ppf "%a: %s <- %a" Names.pp_step (Names.step i j)
            (Syntax.var t.syntax (Names.step i j))
            Expr.Ast.pp phi)
        phis)
    t.interp;
  Format.fprintf ppf "@ IC: %a@]" pp_ic t.ic
