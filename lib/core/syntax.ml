type t = {
  ids : int array array; (* step -> variable id, numbered by first use *)
  names : Names.var array; (* id -> name; the names are distinct *)
  kinds : Op.t array array; (* [||] when every step is an [Op.Update] *)
}

(* The one way in: pool indices read in step order and renumbered by
   first use, the used pool names kept in that order. Every array starts
   from a constant, so none over 256 slots forces a minor collection. *)
let build who pool fmt kinds f =
  let n = Array.length fmt in
  if n = 0 then invalid_arg (who ^ ": empty system");
  let np = Array.length pool in
  let id_of = Array.make np (-1) and names = Array.make np "" in
  let next = ref 0 in
  let ids = Array.make n [||] in
  for i = 0 to n - 1 do
    let row = Array.make fmt.(i) 0 in
    for j = 0 to fmt.(i) - 1 do
      let p = f i j in
      if p < 0 || p >= np then invalid_arg (who ^ ": pool index out of range");
      if id_of.(p) < 0 then begin
        id_of.(p) <- !next;
        names.(!next) <- pool.(p);
        incr next
      end;
      row.(j) <- id_of.(p)
    done;
    ids.(i) <- row
  done;
  let names = if !next = np then names else Array.sub names 0 !next in
  { ids; names; kinds }

let init pool fmt f = build "Syntax.init" pool fmt [||] f

(* Kinds are filled as [f] is called. A syntax of updates alone keeps
   the untyped form, so equal syntaxes have equal fields. *)
let build_typed who pool fmt f =
  let kinds = Array.make (Array.length fmt) [||] and typed = ref false in
  let s =
    build who pool fmt kinds (fun i j ->
        if j = 0 then kinds.(i) <- Array.make fmt.(i) Op.Update;
        let k, p = f i j in
        if k <> Op.Update then begin
          typed := true;
          kinds.(i).(j) <- k
        end;
        p)
  in
  if !typed then s else { s with kinds = [||] }

let init_typed pool fmt f = build_typed "Syntax.init_typed" pool fmt f

(* Names interned by first use through one table: the pool, and each
   step's index into it, which [build] keeps as it is. *)
let intern accesses =
  let tbl : (Names.var, int) Hashtbl.t = Hashtbl.create 16 in
  let pool = ref [] in
  let index v =
    match Hashtbl.find_opt tbl v with
    | Some k -> k
    | None ->
      let k = Hashtbl.length tbl in
      Hashtbl.add tbl v k;
      pool := v :: !pool;
      k
  in
  let rows = Array.map (Array.map index) accesses in
  (Array.of_list (List.rev !pool), rows)

let make accesses =
  let pool, rows = intern accesses in
  build "Syntax.make" pool (Array.map Array.length accesses) [||] (fun i j ->
      rows.(i).(j))

let make_typed steps =
  let pool, rows = intern (Array.map (Array.map snd) steps) in
  build_typed "Syntax.make_typed" pool (Array.map Array.length steps)
    (fun i j -> (fst steps.(i).(j), rows.(i).(j)))

let of_lists lists =
  make (Array.of_list (List.map Array.of_list lists))

let of_lists_typed lists =
  make_typed (Array.of_list (List.map Array.of_list lists))

let format s = Array.map Array.length s.ids

let n_transactions s = Array.length s.ids

let n_steps s = Array.fold_left (fun acc tx -> acc + Array.length tx) 0 s.ids

let length s i =
  if i < 0 || i >= n_transactions s then invalid_arg "Syntax.length";
  Array.length s.ids.(i)

let in_range s (id : Names.step_id) =
  id.tx >= 0
  && id.tx < n_transactions s
  && id.idx >= 0
  && id.idx < Array.length s.ids.(id.tx)

let var s (id : Names.step_id) =
  if not (in_range s id) then invalid_arg "Syntax.var: step out of range";
  s.names.(s.ids.(id.tx).(id.idx))

let kind s (id : Names.step_id) =
  if not (in_range s id) then invalid_arg "Syntax.kind: step out of range";
  if Array.length s.kinds = 0 then Op.Update else s.kinds.(id.tx).(id.idx)

let typed s = Array.length s.kinds > 0

let n_vars s = Array.length s.names

let var_ids s = s.ids

let kinds s = s.kinds

let var_name s v =
  if v < 0 || v >= n_vars s then invalid_arg "Syntax.var_name: id out of range";
  s.names.(v)

let vars s = List.sort String.compare (Array.to_list s.names)

let updates s i =
  if i < 0 || i >= n_transactions s then invalid_arg "Syntax.updates";
  let acc = ref Names.Vset.empty in
  Array.iteri
    (fun j v ->
      if Op.writes (kind s (Names.step i j)) then
        acc := Names.Vset.add s.names.(v) !acc)
    s.ids.(i);
  Names.Vset.elements !acc

let steps s =
  let acc = ref [] in
  for i = n_transactions s - 1 downto 0 do
    for j = Array.length s.ids.(i) - 1 downto 0 do
      acc := Names.step i j :: !acc
    done
  done;
  !acc

let steps_on s v =
  List.filter (fun id -> String.equal (var s id) v) (steps s)

let transactions_on s v =
  steps_on s v
  |> List.map (fun (id : Names.step_id) -> id.tx)
  |> List.sort_uniq Int.compare

(* The renamed names may repeat one: they are interned again, id by id,
   which is first-use order, and [build] renumbers the steps. *)
let rename f s =
  let pool, index = intern [| Array.map f s.names |] in
  build "Syntax.rename" pool (format s) s.kinds (fun i j ->
      index.(0).(s.ids.(i).(j)))

let equal a b = a.ids = b.ids && a.names = b.names && a.kinds = b.kinds

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i tx ->
      Array.iteri
        (fun j v ->
          if i > 0 || j > 0 then Format.fprintf ppf "@ ";
          match kind s (Names.step i j) with
          | Op.Update ->
            Format.fprintf ppf "%a: %s" Names.pp_step (Names.step i j)
              s.names.(v)
          | k ->
            Format.fprintf ppf "%a: %c(%s)" Names.pp_step (Names.step i j)
              (Op.to_char k) s.names.(v))
        tx)
    s.ids;
  Format.fprintf ppf "@]"
