open Core

(* Z_k = {0, .., k-1}. Every entry point goes through here: below 2 the
   domain has no room for the theorems' adversaries, and at 0 the value
   tables would divide by k. *)
let check_k k =
  if k < 2 then
    invalid_arg (Printf.sprintf "the domain size k must be at least 2, got %d" k)

(* Encode a total function Z_k^arity -> Z_k given by its value table
   (indexed by mixed-radix argument tuples) as a decision tree over
   Local 0 .. Local (arity-1). *)
let table_to_expr ~k ~arity table =
  let rec build arg lo hi =
    (* table slice [lo, hi) corresponds to fixed args 0..arg-1 *)
    if arg = arity then Expr.Ast.int table.(lo)
    else begin
      let width = (hi - lo) / k in
      let rec chain v =
        if v = k - 1 then build (arg + 1) (lo + (v * width)) (lo + ((v + 1) * width))
        else
          Expr.Ast.If
            ( Expr.Ast.Eq (Expr.Ast.Local arg, Expr.Ast.int v),
              build (arg + 1) (lo + (v * width)) (lo + ((v + 1) * width)),
              chain (v + 1) )
      in
      chain 0
    end
  in
  build 0 0 (Array.length table)

let pow b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

let all_functions ~k ~arity =
  check_k k;
  let entries = pow k arity in
  if entries > 8 then invalid_arg "Universe.all_functions: too large";
  let count = pow k entries in
  List.init count (fun code ->
      let table =
        Array.init entries (fun pos -> code / pow k pos mod k)
      in
      table_to_expr ~k ~arity table)

let all_syntaxes ~fmt ~vars =
  let vars = Array.of_list vars in
  let nv = Array.length vars in
  let total = Array.fold_left ( + ) 0 fmt in
  if pow nv total > 4096 then invalid_arg "Universe.all_syntaxes: too large";
  List.init (pow nv total) (fun code ->
      let flat = Array.init total (fun pos -> vars.(code / pow nv pos mod nv)) in
      let accesses =
        let off = ref 0 in
        Array.map
          (fun m ->
            let tx = Array.sub flat !off m in
            off := !off + m;
            tx)
          fmt
      in
      Syntax.make accesses)

(* Lazy cartesian product of choice lists. *)
let rec product = function
  | [] -> Seq.return []
  | choices :: rest ->
    Seq.concat_map
      (fun tail -> Seq.map (fun c -> c :: tail) (List.to_seq choices))
      (product rest)

let all_semantics ~k syntax =
  let fmt = Syntax.format syntax in
  let slots =
    Array.to_list fmt
    |> List.concat_map (fun m -> List.init m (fun j -> j + 1))
  in
  let choices = List.map (fun arity -> all_functions ~k ~arity) slots in
  Seq.map
    (fun flat ->
      let flat = Array.of_list flat in
      let off = ref 0 in
      Array.map
        (fun m ->
          let tx = Array.sub flat !off m in
          off := !off + m;
          tx)
        fmt)
    (product choices)

let domains ~k ~vars =
  check_k k;
  List.map (fun v -> (v, Expr.Value.Int_range (0, k - 1))) vars

let states ~k ~vars =
  match State.enumerate (domains ~k ~vars) with
  | Some l -> l
  | None -> assert false

let all_ics ~k ~vars =
  let space = states ~k ~vars in
  let n = List.length space in
  if n > 12 then invalid_arg "Universe.all_ics: state space too large";
  let count = pow 2 n in
  List.init (count - 1) (fun mask ->
      let mask = mask + 1 in  (* skip the empty subset *)
      let members =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) space
      in
      System.Sat
        ( Printf.sprintf "ic#%d" mask,
          fun g -> List.exists (State.equal g) members ))

let candidates ~k ~fmt ~vars =
  check_k k;
  let mul a b = if b <= max_int / a then a * b else max_int in
  let rec power b e = if e = 0 then 1 else mul b (power b (e - 1)) in
  let functions arity =
    let entries = power k arity in
    if entries > 8 then max_int else power k entries
  in
  let space = power k (List.length vars) in
  let ics = if space > 12 then max_int else power 2 space - 1 in
  Array.fold_left
    (fun acc m ->
      List.fold_left (fun acc arity -> mul acc (functions arity)) acc
        (List.init m succ))
    ics fmt

let systems ~k ?syntaxes ~fmt ~vars () =
  let syntaxes =
    match syntaxes with Some s -> s | None -> all_syntaxes ~fmt ~vars
  in
  let probes = states ~k ~vars in
  let domains = domains ~k ~vars in
  let ics = all_ics ~k ~vars in
  Seq.concat_map
    (fun syntax ->
      Seq.concat_map
        (fun interp ->
          Seq.filter_map
            (fun ic ->
              let sys = System.make ~domains ~ic syntax interp in
              if Exec.basic_assumption sys ~probes then Some sys else None)
            (List.to_seq ics))
        (all_semantics ~k syntax))
    (List.to_seq syntaxes)
