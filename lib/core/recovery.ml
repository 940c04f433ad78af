type event =
  | Act of Rw_model.step
  | Commit of int
  | Abort of int

type history = event array

let of_rw ?(aborts = []) (h : Rw_model.history) =
  let n = Rw_model.n_of_history h in
  let terminals =
    List.init n (fun i -> if List.mem i aborts then Abort i else Commit i)
  in
  Array.append (Array.map (fun s -> Act s) h) (Array.of_list terminals)

let well_formed n h =
  let terminal_at = Array.make n (-1) in
  let last_action = Array.make n (-1) in
  let ok = ref true in
  Array.iteri
    (fun p e ->
      match e with
      | Act s -> last_action.(s.Rw_model.id.Names.tx) <- p
      | Commit i | Abort i ->
        if i < 0 || i >= n || terminal_at.(i) >= 0 then ok := false
        else terminal_at.(i) <- p)
    h;
  !ok
  && Array.for_all2
       (fun t a -> t >= 0 && t > a)
       terminal_at last_action

let terminal_pos n h =
  let pos = Array.make n (-1) in
  Array.iteri
    (fun p e ->
      match e with Commit i | Abort i -> pos.(i) <- p | Act _ -> ())
    h;
  pos

let committed n h =
  let c = Array.make n false in
  Array.iter (fun e -> match e with Commit i -> c.(i) <- true | _ -> ()) h;
  c

(* reads-from over the event sequence: for each read, the writing
   transaction (if different) and the position of the read. *)
let cross_reads h =
  let last_writer : (Names.var, int) Hashtbl.t = Hashtbl.create 8 in
  let acc = ref [] in
  Array.iteri
    (fun p e ->
      match e with
      | Act { Rw_model.id; action } ->
        let v = action.Rw_model.var in
        if Op.observes action.Rw_model.op then (
          match Hashtbl.find_opt last_writer v with
          | Some i when i <> id.Names.tx -> acc := (i, id.Names.tx, p) :: !acc
          | Some _ | None -> ());
        if Op.writes action.Rw_model.op then
          Hashtbl.replace last_writer v id.Names.tx
      | Commit _ | Abort _ -> ())
    h;
  List.rev !acc

let recoverable n h =
  let term = terminal_pos n h in
  let comm = committed n h in
  List.for_all
    (fun (writer, reader, _) ->
      (not comm.(reader))
      || (comm.(writer) && term.(writer) < term.(reader)))
    (cross_reads h)

let avoids_cascading_aborts n h =
  let term = terminal_pos n h in
  let comm = committed n h in
  List.for_all
    (fun (writer, reader, p) ->
      ignore reader;
      comm.(writer) && term.(writer) < p)
    (cross_reads h)

let strict n h =
  ignore n;
  (* position of the pending (unterminated) last writer per variable *)
  let last_writer : (Names.var, int) Hashtbl.t = Hashtbl.create 8 in
  let terminated = Hashtbl.create 8 in
  let ok = ref true in
  Array.iter
    (fun e ->
      match e with
      | Commit i | Abort i -> Hashtbl.replace terminated i ()
      | Act { Rw_model.id; action } ->
        let v = Rw_model.var_of action in
        (match Hashtbl.find_opt last_writer v with
        | Some i when i <> id.Names.tx && not (Hashtbl.mem terminated i) ->
          ok := false
        | Some _ | None -> ());
        if Rw_model.is_write action then
          Hashtbl.replace last_writer v id.Names.tx)
    h;
  !ok

let classify n h =
  if strict n h then "ST"
  else if avoids_cascading_aborts n h then "ACA"
  else if recoverable n h then "RC"
  else "-"

let pp ppf h =
  Format.fprintf ppf "(";
  Array.iteri
    (fun p e ->
      if p > 0 then Format.fprintf ppf ", ";
      match e with
      | Act s ->
        let letter =
          String.make 1
            (Char.uppercase_ascii (Op.to_char s.Rw_model.action.Rw_model.op))
        in
        Format.fprintf ppf "%s%d(%s)" letter
          (s.Rw_model.id.Names.tx + 1)
          (Rw_model.var_of s.Rw_model.action)
      | Commit i -> Format.fprintf ppf "C%d" (i + 1)
      | Abort i -> Format.fprintf ppf "A%d" (i + 1))
    h;
  Format.fprintf ppf ")"
