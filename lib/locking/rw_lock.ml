open Core

type mode = Lrs.mode = Shared | Exclusive

type step =
  | Acquire of Names.var * mode
  | Release of Names.var
  | Do of Rw_model.step

type program = step array

let transform_with ~mode_for i actions =
  let actions = Array.of_list actions in
  let m = Array.length actions in
  if m = 0 then [||]
  else begin
    let first = Hashtbl.create 8 and last = Hashtbl.create 8 in
    let first_write = Hashtbl.create 8 in
    Array.iteri
      (fun j a ->
        let v = Rw_model.var_of a in
        if not (Hashtbl.mem first v) then Hashtbl.add first v j;
        Hashtbl.replace last v j;
        if Rw_model.is_write a && not (Hashtbl.mem first_write v) then
          Hashtbl.add first_write v j)
      actions;
    (* initial mode at first use, and the position of the upgrade to
       exclusive if a later write needs one *)
    let initial_mode v = mode_for ~first_use:(Hashtbl.find first v) v actions in
    let upgrade_at v =
      match Hashtbl.find_opt first_write v, initial_mode v with
      | Some jw, Shared when jw > Hashtbl.find first v -> Some jw
      | _ -> None
    in
    let acquire_positions =
      Hashtbl.fold
        (fun v j acc ->
          let acc = j :: acc in
          match upgrade_at v with Some jw -> jw :: acc | None -> acc)
        first []
    in
    let phase_shift = List.fold_left max 0 acquire_positions in
    let early_releases =
      Hashtbl.fold
        (fun v j acc -> if j < phase_shift then (j, v) :: acc else acc)
        last []
      |> List.sort (fun a b -> compare b a)
    in
    let steps = ref [] in
    let emit s = steps := s :: !steps in
    for j = 0 to m - 1 do
      let v = Rw_model.var_of actions.(j) in
      if Hashtbl.find first v = j then emit (Acquire (v, initial_mode v));
      if upgrade_at v = Some j then emit (Acquire (v, Exclusive));
      if j = phase_shift then
        List.iter (fun (_, w) -> emit (Release w)) early_releases;
      emit (Do { Rw_model.id = Names.step i j; action = actions.(j) });
      if j >= phase_shift then
        Hashtbl.iter (fun w j' -> if j' = j then emit (Release w)) last
    done;
    Array.of_list (List.rev !steps)
  end

let transform i actions =
  transform_with i actions ~mode_for:(fun ~first_use v actions ->
      let a = actions.(first_use) in
      if Rw_model.is_write a && String.equal a.Rw_model.var v then Exclusive
      else Shared)

let exclusive_only i actions =
  transform_with i actions ~mode_for:(fun ~first_use:_ _ _ -> Exclusive)

let programs per_tx = Array.of_list (List.mapi transform per_tx)

let view = function
  | Acquire (v, mode) -> Lrs.Lock (v, mode)
  | Release v -> Lrs.Unlock v
  | Do s -> Lrs.Act s

let legal progs il = Lrs.legal view progs il
let outputs progs = Lrs.outputs view progs
let passes progs h = Lrs.passes view (fun s -> s.Rw_model.id) progs h
let is_two_phase prog = Lrs.is_two_phase view prog

let pp_step ppf = function
  | Acquire (v, Shared) -> Format.fprintf ppf "lock-S %s" v
  | Acquire (v, Exclusive) -> Format.fprintf ppf "lock-X %s" v
  | Release v -> Format.fprintf ppf "unlock %s" v
  | Do s ->
    let letter =
      String.make 1
        (Char.uppercase_ascii (Op.to_char s.Rw_model.action.Rw_model.op))
    in
    Format.fprintf ppf "%s%d(%s)" letter
      (s.Rw_model.id.Names.tx + 1)
      (Rw_model.var_of s.Rw_model.action)

let pp_program ppf prog =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun k s ->
      if k > 0 then Format.fprintf ppf "@ ";
      pp_step ppf s)
    prog;
  Format.fprintf ppf "@]"
