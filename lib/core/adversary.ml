let interruption h =
  (* Find steps T_ij, T_kl, T_i(j+1) at positions p < q < r with k <> i.
     We look for an adjacent pair (j, j+1) of some transaction whose
     occurrences in h are not adjacent; any step in the gap is foreign. *)
  let len = Array.length h in
  let result = ref None in
  (try
     for p = 0 to len - 1 do
       let s = h.(p) in
       (* position of the next step of the same transaction *)
       for r = p + 1 to len - 1 do
         if !result = None && h.(r).Names.tx = s.Names.tx then
           if h.(r).Names.idx = s.Names.idx + 1 && r > p + 1 then begin
             result := Some (s, h.(p + 1), h.(r));
             raise Exit
           end
       done
     done
   with Exit -> ());
  !result

let identity_step j = Expr.Ast.Local j

let theorem2_adversary fmt h =
  match interruption h with
  | None -> None
  | Some (si, sk, _si') ->
    let open Expr.Ast in
    let syntax =
      Syntax.make (Array.map (fun m -> Array.make m "x") fmt)
    in
    let interp =
      Array.mapi
        (fun i m ->
          Array.init m (fun j ->
              if i = si.Names.tx && j = si.Names.idx then
                Add (Local j, int 1)
              else if i = si.Names.tx && j = si.Names.idx + 1 then
                Sub (Local j, int 1)
              else if i = sk.Names.tx && j = sk.Names.idx then
                Mul (Local j, int 2)
              else identity_step j))
        fmt
    in
    let ic = System.Pred (Eq (Global "x", int 0)) in
    Some (System.make ~ic syntax interp)

let theorem2_refutes fmt h =
  match theorem2_adversary fmt h with
  | None -> false
  | Some sys ->
    let zero = State.of_ints [ ("x", 0) ] in
    let probes = [ zero ] in
    Exec.basic_assumption sys ~probes
    && System.consistent sys zero
    && not (System.consistent sys (Exec.run sys zero h))

(* How many times does transaction [i] occur in a Herbrand state? In the
   read-modify-write model every application node survives inside the
   final terms, so counting occurrences of the first-step symbol f_i1
   recovers the exact multiset of transactions in any serial
   concatenation producing the state. *)
module Tset = Set.Make (struct
  type t = Herbrand.term

  let compare = Herbrand.compare_term
end)

let multiplicities n (g : Herbrand.hstate) =
  (* Distinct application events: the same App node can occur in several
     variables' final terms (once as a surviving value, once embedded in
     a later local read), so we count distinct subterms. Two executions
     of the same step always yield distinct terms because each read
     strictly grows the history it embeds. *)
  let subterms = ref Tset.empty in
  let rec collect (t : Herbrand.term) =
    if not (Tset.mem t !subterms) then begin
      subterms := Tset.add t !subterms;
      match t with
      | Herbrand.Init _ -> ()
      | Herbrand.App (_, args) -> List.iter collect args
      | Herbrand.Sem (_, _, base) -> collect base
    end
  in
  Names.Vmap.iter (fun _ t -> collect t) g;
  let counts = Array.make n 0 in
  Tset.iter
    (function
      | Herbrand.App (s, _) when s.Names.idx = 0 ->
        counts.(s.Names.tx) <- counts.(s.Names.tx) + 1
      | Herbrand.Sem (_, ids, _) ->
        List.iter
          (fun (s : Names.step_id) ->
            if s.Names.idx = 0 then counts.(s.Names.tx) <- counts.(s.Names.tx) + 1)
          ids
      | Herbrand.App _ | Herbrand.Init _ -> ())
    !subterms;
  counts

let serial_hstate syntax order_list =
  (* symbolic execution of a concatenation of complete transactions *)
  let fmt = Syntax.format syntax in
  let g = ref (Herbrand.initial syntax) in
  List.iter
    (fun i ->
      let locals = Array.map (fun m -> Array.make m None) fmt in
      let st = ref (!g, locals) in
      for j = 0 to fmt.(i) - 1 do
        st := Herbrand.exec_step syntax !st (Names.step i j)
      done;
      g := fst !st)
    order_list;
  !g

let herbrand_reachable syntax target =
  let n = Syntax.n_transactions syntax in
  let mult = multiplicities n target in
  (* depth-first enumeration of the permutations of the multiset given by
     [mult], comparing symbolic final states *)
  let remaining = Array.copy mult in
  let rec go prefix_rev =
    if Array.for_all (fun c -> c = 0) remaining then
      Herbrand.equal_state (serial_hstate syntax (List.rev prefix_rev)) target
    else begin
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        if remaining.(!i) > 0 then begin
          remaining.(!i) <- remaining.(!i) - 1;
          if go (!i :: prefix_rev) then found := true;
          remaining.(!i) <- remaining.(!i) + 1
        end;
        incr i
      done;
      !found
    end
  in
  go []

let theorem3_refutes syntax h =
  not (herbrand_reachable syntax (Herbrand.run syntax h))

let theorem1_bound_holds ~universe ~probes schedules =
  List.for_all
    (fun h ->
      List.for_all (fun sys -> Exec.correct_schedule sys ~probes h) universe)
    schedules
