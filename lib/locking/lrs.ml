open Core

type mode = Shared | Exclusive

let compatible held requested =
  match held, requested with
  | Shared, Shared -> true
  | Shared, Exclusive | Exclusive, Shared | Exclusive, Exclusive -> false

type 'a op =
  | Lock of string * mode
  | Unlock of string
  | Act of 'a

type 'a t = {
  progs : 'a op array array;  (* read through the view once, at [create] *)
  pos : int array;
  table : (string, (int * mode) list) Hashtbl.t;  (* lock -> holders *)
}

let of_ops progs =
  { progs; pos = Array.make (Array.length progs) 0; table = Hashtbl.create 16 }

let ops view progs = Array.map (Array.map view) progs
let create view progs = of_ops (ops view progs)

let copy t = { t with pos = Array.copy t.pos; table = Hashtbl.copy t.table }

let holders t x = Option.value ~default:[] (Hashtbl.find_opt t.table x)

(* the holders other than [i] whose mode excludes a [want] request *)
let conflicts t i x want =
  List.filter_map
    (fun (j, held) -> if j <> i && not (compatible held want) then Some j else None)
    (holders t x)

let idle t = Hashtbl.length t.table = 0

let finished t =
  Array.for_all2 (fun p prog -> p = Array.length prog) t.pos t.progs

(* Run [i]'s step at its position, which the caller has cleared. *)
let exec t i notify =
  let s = t.progs.(i).(t.pos.(i)) in
  (match s with
  | Lock (x, want) ->
    Hashtbl.replace t.table x ((i, want) :: List.remove_assoc i (holders t x));
    notify s
  | Unlock x ->
    let hs = holders t x in
    if List.mem_assoc i hs then begin
      (match List.remove_assoc i hs with
      | [] -> Hashtbl.remove t.table x
      | rest -> Hashtbl.replace t.table x rest);
      notify s
    end
  | Act _ -> ());
  t.pos.(i) <- t.pos.(i) + 1

let rec find_act t i p =
  if p >= Array.length t.progs.(i) then None
  else
    match t.progs.(i).(p) with
    | Act a -> Some (p, a)
    | Lock _ | Unlock _ -> find_act t i (p + 1)

let next_action t i = Option.map snd (find_act t i t.pos.(i))

let blockers t i =
  match find_act t i t.pos.(i) with
  | None -> []
  | Some (ap, _) ->
    let stop =
      if Option.is_none (find_act t i (ap + 1)) then Array.length t.progs.(i)
      else ap
    in
    let rec go p =
      if p >= stop then []
      else
        match t.progs.(i).(p) with
        | Lock (x, want) -> conflicts t i x want @ go (p + 1)
        | Unlock _ | Act _ -> go (p + 1)
    in
    go t.pos.(i)

let advance t i notify =
  let run_while more =
    while
      t.pos.(i) < Array.length t.progs.(i)
      && more t.progs.(i).(t.pos.(i))
    do
      exec t i notify
    done
  in
  run_while (function Act _ -> false | Lock _ | Unlock _ -> true);
  exec t i notify;
  let last = Option.is_none (find_act t i t.pos.(i)) in
  run_while (function Unlock _ -> true | Lock _ -> last | Act _ -> false)

let reset t i =
  t.pos.(i) <- 0;
  Hashtbl.filter_map_inplace
    (fun _ hs ->
      match List.filter (fun (j, _) -> j <> i) hs with
      | [] -> None
      | hs -> Some hs)
    t.table

let passes view id progs h =
  let t = create view progs in
  Array.for_all
    (fun a ->
      let i = (id a).Names.tx in
      match next_action t i with
      | Some a' when Names.equal_step (id a) (id a') && blockers t i = [] ->
        advance t i ignore;
        true
      | Some _ | None -> false)
    h
  && idle t

(* Run [i]'s next step if it is there and the table admits it. *)
let step t i =
  t.pos.(i) < Array.length t.progs.(i)
  && (match t.progs.(i).(t.pos.(i)) with
     | Lock (x, want) -> conflicts t i x want = []
     | Unlock _ | Act _ -> true)
  && (exec t i ignore; true)

let scan progs il =
  let t = of_ops progs in
  let n = Array.length progs in
  (Array.for_all (fun i -> i >= 0 && i < n && step t i) il, t)

let legal_ops progs il =
  let ok, t = scan progs il in
  ok && finished t && idle t

let legal_prefix view progs il = fst (scan (ops view progs) il)
let legal view progs il = legal_ops (ops view progs) il

let project view progs il =
  let pos = Array.make (Array.length progs) 0 in
  Array.fold_left
    (fun acc i ->
      let s = progs.(i).(pos.(i)) in
      pos.(i) <- pos.(i) + 1;
      match view s with Act a -> a :: acc | Lock _ | Unlock _ -> acc)
    [] il
  |> List.rev |> Array.of_list

let outputs view progs =
  let progs = ops view progs in
  let seen = Hashtbl.create 64 in
  Combin.Interleave.fold (Array.map Array.length progs)
    (fun acc il ->
      if not (legal_ops progs il) then acc
      else
        let h = project Fun.id progs il in
        if Hashtbl.mem seen h then acc
        else begin
          Hashtbl.add seen h ();
          h :: acc
        end)
    []
  |> List.rev

(* Depth-first over the machine's states. On legal paths the positions
   determine the lock table, so they alone are the memo key. *)
let can_output view id progs h =
  let progs = ops view progs in
  let len = Array.length h in
  let visited = Hashtbl.create 256 in
  let rec go t matched =
    (matched = len && finished t && idle t)
    || (not (Hashtbl.mem visited t.pos))
       && begin
         Hashtbl.add visited t.pos ();
         let try_tx i =
           t.pos.(i) < Array.length progs.(i)
           &&
           match progs.(i).(t.pos.(i)) with
           | Act a ->
             matched < len
             && Names.equal_step (id a) (id h.(matched))
             && (let t' = copy t in step t' i && go t' (matched + 1))
           | Lock _ | Unlock _ ->
             let t' = copy t in
             step t' i && go t' matched
         in
         let rec any i = i < Array.length progs && (try_tx i || any (i + 1)) in
         any 0
       end
  in
  go (of_ops progs) 0

let is_two_phase view prog =
  let unlocked = ref false in
  Array.for_all
    (fun s ->
      match view s with
      | Unlock _ ->
        unlocked := true;
        true
      | Lock _ -> not !unlocked
      | Act _ -> true)
    prog
