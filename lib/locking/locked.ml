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
module Smap = Map.Make (String)

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

let is_two_phase l =
  Array.for_all
    (fun tx ->
      let unlocked = ref false in
      Array.for_all
        (fun s ->
          match s with
          | Unlock _ ->
            unlocked := true;
            true
          | Lock _ -> not !unlocked
          | Action _ -> true)
        tx)
    l.txs

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

(* Lock-state machine shared by the legality checks. *)
let try_step held s =
  match s with
  | Lock x -> if Sset.mem x held then None else Some (Sset.add x held)
  | Unlock x -> if Sset.mem x held then Some (Sset.remove x held) else None
  | Action _ -> Some held
(* [Unlock x] when no one holds x is a -1 error in the paper's semantics;
   per-transaction validation in [make] already rules out unlocking a
   lock the transaction does not hold, and here the global set contains
   every held lock, so membership is the right test. *)

let scan l il =
  (* returns (ok, final held set) for a prefix interleaving *)
  let n = Array.length l.txs in
  let progress = Array.make n 0 in
  let held = ref Sset.empty in
  let ok = ref true in
  Array.iter
    (fun i ->
      if !ok then begin
        if i < 0 || i >= n || progress.(i) >= Array.length l.txs.(i) then
          ok := false
        else
          match try_step !held l.txs.(i).(progress.(i)) with
          | Some held' ->
            held := held';
            progress.(i) <- progress.(i) + 1
          | None -> ok := false
      end)
    il;
  (!ok, !held, progress)

let legal_prefix l il =
  let ok, _, _ = scan l il in
  ok

let legal l il =
  let ok, held, progress = scan l il in
  ok && Sset.is_empty held
  && Array.for_all2 (fun p tx -> p = Array.length tx) progress l.txs

let project l il =
  let n = Array.length l.txs in
  let progress = Array.make n 0 in
  let actions = ref [] in
  Array.iter
    (fun i ->
      (match l.txs.(i).(progress.(i)) with
      | Action id -> actions := id :: !actions
      | Lock _ | Unlock _ -> ());
      progress.(i) <- progress.(i) + 1)
    il;
  Array.of_list (List.rev !actions)

let all_legal l =
  List.filter (legal l) (Combin.Interleave.all (format l))

let outputs l =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun il ->
      let h = project l il in
      if Hashtbl.mem seen h then None
      else begin
        Hashtbl.add seen h ();
        Some h
      end)
    (all_legal l)

(* Reachability search for can_output: state = (progress vector, number
   of actions of h already matched, held set). Depth-first with
   memoization on (progress, held) — the matched count is determined by
   the progress vector, so it need not be part of the key. *)
let can_output l h =
  let n = Array.length l.txs in
  if not (Schedule.is_schedule_of (Syntax.format l.base) h) then false
  else begin
    let len = Array.length h in
    let visited = Hashtbl.create 256 in
    let rec go progress matched held =
      if matched = len
         && Array.for_all2
              (fun p (tx : transaction) -> p = Array.length tx)
              progress l.txs
         && Sset.is_empty held
      then true
      else begin
        let key = (Array.to_list progress, Sset.elements held) in
        if Hashtbl.mem visited key then false
        else begin
          Hashtbl.add visited key ();
          let try_tx i =
            let p = progress.(i) in
            if p >= Array.length l.txs.(i) then false
            else
              let s = l.txs.(i).(p) in
              let step_ok =
                match s with
                | Action id -> matched < len && Names.equal_step id h.(matched)
                | Lock _ | Unlock _ -> true
              in
              step_ok
              &&
              match try_step held s with
              | None -> false
              | Some held' ->
                let progress' = Array.copy progress in
                progress'.(i) <- p + 1;
                let matched' =
                  match s with
                  | Action _ -> matched + 1
                  | Lock _ | Unlock _ -> matched
                in
                go progress' matched' held'
          in
          let rec any i = i < n && (try_tx i || any (i + 1)) in
          any 0
        end
      end
    in
    go (Array.make n 0) 0 Sset.empty
  end

(* Greedy lock-respecting scheduler: for each action in h order, run its
   transaction's pending segment (locks fail => not passable), then the
   action, then eagerly release the following unlock run. *)
let passes l h =
  if not (Schedule.is_schedule_of (Syntax.format l.base) h) then false
  else begin
    let n = Array.length l.txs in
    let progress = Array.make n 0 in
    let held = ref Sset.empty in
    let ok = ref true in
    let exec i s =
      match try_step !held s with
      | Some held' ->
        held := held';
        progress.(i) <- progress.(i) + 1
      | None -> ok := false
    in
    let actions_remain i =
      let rec go p =
        p < Array.length l.txs.(i)
        &&
        match l.txs.(i).(p) with
        | Action _ -> true
        | Lock _ | Unlock _ -> go (p + 1)
      in
      go progress.(i)
    in
    let eager_unlocks i =
      if not (actions_remain i) then
        (* final action done: run the whole trailing protocol, locks
           included (2PL' ends transactions with a lock X' step) *)
        while !ok && progress.(i) < Array.length l.txs.(i) do
          exec i l.txs.(i).(progress.(i))
        done
      else begin
        let continue = ref true in
        while !ok && !continue do
          let p = progress.(i) in
          if p < Array.length l.txs.(i) then
            match l.txs.(i).(p) with
            | Unlock _ as s -> exec i s
            | Lock _ | Action _ -> continue := false
          else continue := false
        done
      end
    in
    Array.iter
      (fun (id : Names.step_id) ->
        if !ok then begin
          let i = id.Names.tx in
          (* run segment up to and including the action *)
          let continue = ref true in
          while !ok && !continue do
            let p = progress.(i) in
            if p >= Array.length l.txs.(i) then ok := false
            else begin
              let s = l.txs.(i).(p) in
              exec i s;
              match s with
              | Action id' ->
                if not (Names.equal_step id id') then ok := false;
                continue := false
              | Lock _ | Unlock _ -> ()
            end
          done;
          if !ok then eager_unlocks i
        end)
      h;
    (* trailing unlocks were released eagerly after each final action *)
    !ok && Sset.is_empty !held
  end

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
