open Core
open Locking

type input = {
  base : Syntax.t;
  txs : Locked.step list list;
  policy : Policy.t option;
}

let of_policy policy syntax =
  let locked = policy.Policy.apply syntax in
  {
    base = syntax;
    txs =
      Array.to_list
        (Array.map Array.to_list locked.Locked.txs);
    policy = Some policy;
  }

let of_locked ?policy (locked : Locked.t) =
  {
    base = locked.Locked.base;
    txs = Array.to_list (Array.map Array.to_list locked.Locked.txs);
    policy;
  }

(* ---------- pairing and structure ---------- *)

let pairing_diags input =
  List.concat
    (List.mapi
       (fun i steps ->
         let held = Hashtbl.create 8 in
         let errs = ref [] in
         let err msg =
           errs :=
             Report.diagnostic ~rule:"lock/pairing" ~severity:Report.Error
               ~txs:[ i ] msg
             :: !errs
         in
         List.iteri
           (fun p step ->
             match step with
             | Locked.Lock x ->
               if Hashtbl.mem held x then
                 err
                   (Printf.sprintf
                      "T%d step %d acquires %s while already holding it"
                      (i + 1) (p + 1) x)
               else Hashtbl.add held x ()
             | Locked.Unlock x ->
               if Hashtbl.mem held x then Hashtbl.remove held x
               else
                 err
                   (Printf.sprintf
                      "T%d step %d releases %s without holding it" (i + 1)
                      (p + 1) x)
             | Locked.Action _ -> ())
           steps;
         Hashtbl.iter
           (fun x () ->
             err
               (Printf.sprintf "T%d ends still holding %s" (i + 1) x))
           held;
         List.rev !errs)
       input.txs)

let structure_diags input =
  (* the Action steps of transaction i must be exactly (i,0)..(i,m_i-1)
     in order *)
  List.concat
    (List.mapi
       (fun i steps ->
         let expected =
           List.init (Syntax.length input.base i) (Names.step i)
         in
         let actual =
           List.filter_map
             (function Locked.Action s -> Some s | _ -> None)
             steps
         in
         if
           List.length actual = List.length expected
           && List.for_all2 Names.equal_step actual expected
         then []
         else
           [
             Report.diagnostic ~rule:"lock/malformed"
               ~severity:Report.Error ~txs:[ i ]
               (Printf.sprintf
                  "T%d's action steps are not the base transaction's \
                   steps in program order"
                  (i + 1));
           ])
       input.txs)

(* ---------- checks on a well-formed locked system ---------- *)

let coverage_diags (locked : Locked.t) =
  let diags = ref [] in
  Array.iteri
    (fun i tx ->
      let held = Hashtbl.create 8 in
      Array.iter
        (fun step ->
          match step with
          | Locked.Lock x -> Hashtbl.replace held x ()
          | Locked.Unlock x -> Hashtbl.remove held x
          | Locked.Action s ->
            let v = Syntax.var locked.Locked.base s in
            if not (Hashtbl.mem held (Two_phase.lock_name v)) then
              diags :=
                Report.diagnostic ~rule:"lock/coverage"
                  ~severity:Report.Error ~txs:[ i ] ~steps:[ s ]
                  ~witness:(Report.Steps [ s ])
                  (Printf.sprintf
                     "%s accesses %s without holding its lock — the \
                      geometric serializability criterion assumes every \
                      access is covered"
                     (Names.step_to_string s) v)
                :: !diags)
        tx)
    locked.Locked.txs;
  List.rev !diags

let two_phase_diags (locked : Locked.t) =
  let violations = ref [] in
  Array.iteri
    (fun i tx ->
      let unlocked = ref false in
      Array.iteri
        (fun p step ->
          match step with
          | Locked.Unlock _ -> unlocked := true
          | Locked.Lock x ->
            if !unlocked && !violations |> List.for_all (fun (j, _, _) -> j <> i)
            then violations := (i, p, x) :: !violations
          | Locked.Action _ -> ())
        tx)
    locked.Locked.txs;
  match List.rev !violations with
  | [] ->
    [
      Report.diagnostic ~rule:"lock/two-phase" ~severity:Report.Info
        "every transaction is two-phase (no lock after the first unlock)";
    ]
  | vs ->
    List.map
      (fun (i, p, x) ->
        Report.diagnostic ~rule:"lock/two-phase" ~severity:Report.Warning
          ~txs:[ i ]
          (Printf.sprintf
             "T%d acquires %s at locked step %d after having released a \
              lock — the policy is not two-phase, so serializability of \
              its outputs is not guaranteed"
             (i + 1) x (p + 1)))
      vs

let separability_diags input =
  match input.policy with
  | None -> []
  | Some policy ->
    let n = Syntax.n_transactions input.base in
    let remap i = function
      | Locked.Action s -> Locked.Action (Names.step i s.Names.idx)
      | step -> step
    in
    let separable =
      List.init n (fun i ->
          let row =
            Array.init (Syntax.length input.base i) (fun j ->
                Syntax.var input.base (Names.step i j))
          in
          let solo = policy.Policy.apply (Syntax.make [| row |]) in
          let solo_steps =
            List.map (remap i) (Array.to_list solo.Locked.txs.(0))
          in
          solo_steps = List.nth input.txs i)
      |> List.for_all (fun b -> b)
    in
    if separable then
      [
        Report.diagnostic ~rule:"lock/separable" ~severity:Report.Info
          (Printf.sprintf
             "policy %s is separable on this system: each transaction is \
              transformed independently of the others"
             policy.Policy.name);
      ]
    else
      [
        Report.diagnostic ~rule:"lock/non-separable"
          ~severity:Report.Warning
          (Printf.sprintf
             "policy %s uses cross-transaction information on this system \
              (§5.4: optimality among separable policies does not apply)"
             policy.Policy.name);
      ]

(* ---------- deadlock geometry ---------- *)

let reaching_prefix geo p =
  let origin q = Array.for_all (fun x -> x = 0) q in
  let rec back q acc =
    if origin q then acc
    else begin
      let found = ref None in
      Array.iteri
        (fun i x ->
          if !found = None && x > 0 then begin
            let q' = Array.copy q in
            q'.(i) <- x - 1;
            if Geometry_nd.reachable geo q' then found := Some (i, q')
          end)
        q;
      match !found with
      | Some (i, q') -> back q' (i :: acc)
      | None -> acc
    end
  in
  Array.of_list (back (Array.copy p) [])

let deadlock_diags (locked : Locked.t) =
  match Geometry_nd.analyse locked with
  | exception Invalid_argument _ ->
    [
      Report.diagnostic ~rule:"lock/geometry-skipped" ~severity:Report.Info
        "progress grid too large for the deadlock analysis; no deadlock \
         verdict";
    ]
  | geo -> (
    match Geometry_nd.deadlock_points geo with
    | [] ->
      [
        Report.diagnostic ~rule:"lock/deadlock-free" ~severity:Report.Info
          "the progress geometry has no deadlock region: no reachable \
           point is doomed";
      ]
    | points ->
      let p = List.hd (List.sort compare points) in
      let prefix = reaching_prefix geo p in
      (* the transactions still unfinished at the doomed point *)
      let txs =
        List.filter
          (fun i -> p.(i) < (Geometry_nd.dims geo).(i))
          (List.init (Array.length p) (fun i -> i))
      in
      [
        Report.diagnostic ~rule:"lock/deadlock" ~severity:Report.Warning
          ~txs
          ~witness:(Report.Progress (p, prefix))
          (Printf.sprintf
             "deadlock region of %d point(s): from the witness progress \
              vector every continuation hits the forbidden region — the \
              lock-respecting scheduler must abort somebody"
             (List.length points));
      ])

(* ---------- output serializability ---------- *)

let max_interleavings = 50_000

let outputs_diags (locked : Locked.t) =
  let fmt = Locked.format locked in
  let count = try Schedule.count fmt with Invalid_argument _ -> max_int in
  if count > max_interleavings then
    [
      Report.diagnostic ~rule:"lock/outputs-skipped" ~severity:Report.Info
        (Printf.sprintf
           "output-serializability check skipped: %d interleavings exceed \
            the bound %d"
           count max_interleavings);
    ]
  else
    let base = locked.Locked.base in
    let bad =
      List.find_opt
        (fun il ->
          Locked.legal locked il
          && not (Conflict.serializable base (Locked.project locked il)))
        (Combin.Interleave.all fmt)
    in
    match bad with
    | Some il ->
      [
        Report.diagnostic ~rule:"lock/non-serializable-output"
          ~severity:Report.Error
          ~witness:(Report.Locked_run il)
          (Format.asprintf
             "the locking admits a legal interleaving whose projection %a \
              is not serializable — the policy is incorrect (Figure 4(c): \
              the path separates the forbidden blocks)"
             Schedule.pp
             (Locked.project locked il));
      ]
    | None ->
      [
        Report.diagnostic ~rule:"lock/outputs-serializable"
          ~severity:Report.Info
          (Printf.sprintf
             "all legal locked interleavings (of %d total) project to \
              serializable schedules"
             count);
      ]

(* ---------- the pass ---------- *)

let lint input =
  let shape = pairing_diags input @ structure_diags input in
  if shape <> [] then shape
  else
    let locked = Locked.make input.base input.txs in
    coverage_diags locked
    @ two_phase_diags locked
    @ separability_diags input
    @ deadlock_diags locked
    @ outputs_diags locked
