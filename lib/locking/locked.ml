open Core

type lock_var = string

type step =
  | Lock of lock_var
  | Unlock of lock_var
  | Action of Names.step_id

type transaction = step array

type t = {
  base : Syntax.t;
  txs : transaction array;
}

module Sset = Set.Make (String)

let validate_transaction base i (tx : step array) =
  let expected = Syntax.length base i in
  let next_action = ref 0 in
  let held = ref Sset.empty in
  Array.iter
    (fun s ->
      match s with
      | Action id ->
        if id.Names.tx <> i || id.Names.idx <> !next_action then
          invalid_arg
            (Printf.sprintf
               "Locked.make: transaction %d: actions out of order at %s"
               (i + 1) (Names.step_to_string id));
        incr next_action
      | Lock x ->
        if Sset.mem x !held then
          invalid_arg
            (Printf.sprintf "Locked.make: transaction %d re-locks %s" (i + 1) x);
        held := Sset.add x !held
      | Unlock x ->
        if not (Sset.mem x !held) then
          invalid_arg
            (Printf.sprintf
               "Locked.make: transaction %d unlocks %s without holding it"
               (i + 1) x);
        held := Sset.remove x !held)
    tx;
  if !next_action <> expected then
    invalid_arg
      (Printf.sprintf "Locked.make: transaction %d has %d of %d actions"
         (i + 1) !next_action expected);
  if not (Sset.is_empty !held) then
    invalid_arg
      (Printf.sprintf "Locked.make: transaction %d ends holding %s" (i + 1)
         (String.concat "," (Sset.elements !held)))

let make base txs =
  let txs = Array.of_list (List.map Array.of_list txs) in
  if Array.length txs <> Syntax.n_transactions base then
    invalid_arg "Locked.make: transaction count mismatch";
  Array.iteri (validate_transaction base) txs;
  { base; txs }

let lock_vars l =
  Array.fold_left
    (fun acc tx ->
      Array.fold_left
        (fun acc s ->
          match s with
          | Lock x | Unlock x -> Sset.add x acc
          | Action _ -> acc)
        acc tx)
    Sset.empty l.txs
  |> Sset.elements

let format l = Array.map Array.length l.txs

let view = function
  | Lock x -> Lrs.Lock (x, Lrs.Exclusive)
  | Unlock x -> Lrs.Unlock x
  | Action id -> Lrs.Act id

let machine l = Lrs.create view l.txs

let is_two_phase l = Array.for_all (Lrs.is_two_phase view) l.txs

let is_well_formed l =
  Array.for_all
    (fun tx ->
      let held = ref Sset.empty in
      Array.for_all
        (fun s ->
          match s with
          | Lock x ->
            held := Sset.add x !held;
            true
          | Unlock x ->
            held := Sset.remove x !held;
            true
          | Action id -> Sset.mem (Syntax.var l.base id) !held)
        tx)
    l.txs

let holds_after tx x p =
  let held = ref false in
  for q = 0 to p - 1 do
    match tx.(q) with
    | Lock y when String.equal x y -> held := true
    | Unlock y when String.equal x y -> held := false
    | Lock _ | Unlock _ | Action _ -> ()
  done;
  !held

let legal_prefix l il = Lrs.legal_prefix view l.txs il
let legal l il = Lrs.legal view l.txs il
let project l il = Lrs.project view l.txs il
let outputs l = Lrs.outputs view l.txs

let can_output l h =
  Schedule.is_schedule_of (Syntax.format l.base) h
  && Lrs.can_output view Fun.id l.txs h

let passes l h =
  Schedule.is_schedule_of (Syntax.format l.base) h
  && Lrs.passes view Fun.id l.txs h

let pp_step ppf = function
  | Lock x -> Format.fprintf ppf "lock %s" x
  | Unlock x -> Format.fprintf ppf "unlock %s" x
  | Action id -> Format.fprintf ppf "%a" Names.pp_step id

let pp ppf l =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i tx ->
      if i > 0 then Format.fprintf ppf "@ @ ";
      Format.fprintf ppf "T%d:" (i + 1);
      Array.iter (fun s -> Format.fprintf ppf "@   %a" pp_step s) tx)
    l.txs;
  Format.fprintf ppf "@]"
