(* Step [j] of transaction [i] is slot [start.(i) + j] of [ids] and of
   [codes]: one row-major array per step table, not one block per
   transaction. *)
type t = {
  ids : int array; (* step -> variable id, numbered by first use *)
  start : int array; (* n + 1 offsets: [i]'s steps are [start.(i) ..] *)
  names : Names.var array; (* id -> name; the names are distinct *)
  codes : Bytes.t; (* step -> [Op.index]; empty when all are updates *)
}

(* The offsets of format [fmt]. *)
let offsets who fmt =
  let n = Array.length fmt in
  if n = 0 then invalid_arg (who ^ ": empty system");
  let start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    if fmt.(i) < 0 then invalid_arg (who ^ ": negative transaction length");
    start.(i + 1) <- start.(i) + fmt.(i)
  done;
  start

(* The one way in: pool indices read in step order and renumbered by
   first use, the used pool names kept in that order. Every array starts
   from a constant, so none over 256 slots forces a minor collection. *)
let build who pool start codes f =
  let np = Array.length pool in
  let id_of = Array.make np (-1) and names = Array.make np "" in
  let next = ref 0 in
  let ids = Array.make start.(Array.length start - 1) 0 in
  for i = 0 to Array.length start - 2 do
    let at = start.(i) in
    for j = 0 to start.(i + 1) - at - 1 do
      let p = f i j in
      if p < 0 || p >= np then invalid_arg (who ^ ": pool index out of range");
      if id_of.(p) < 0 then begin
        id_of.(p) <- !next;
        names.(!next) <- pool.(p);
        incr next
      end;
      ids.(at + j) <- id_of.(p)
    done
  done;
  let names = if !next = np then names else Array.sub names 0 !next in
  { ids; start; names; codes }

let init pool fmt f =
  build "Syntax.init" pool (offsets "Syntax.init" fmt) Bytes.empty f

(* Codes are filled as [f] is called. A syntax of updates alone keeps
   the untyped form, so equal syntaxes have equal fields. *)
let update_code = Char.chr (Op.index Op.Update)

let build_typed who pool fmt f =
  let start = offsets who fmt in
  let codes = Bytes.make start.(Array.length fmt) update_code in
  let typed = ref false in
  let s =
    build who pool start codes (fun i j ->
        let k, p = f i j in
        if k <> Op.Update then begin
          typed := true;
          Bytes.set codes (start.(i) + j) (Char.chr (Op.index k))
        end;
        p)
  in
  if !typed then s else { s with codes = Bytes.empty }

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
  build "Syntax.make" pool
    (offsets "Syntax.make" (Array.map Array.length accesses))
    Bytes.empty
    (fun i j -> rows.(i).(j))

let make_typed steps =
  let pool, rows = intern (Array.map (Array.map snd) steps) in
  build_typed "Syntax.make_typed" pool (Array.map Array.length steps)
    (fun i j -> (fst steps.(i).(j), rows.(i).(j)))

let of_lists lists =
  make (Array.of_list (List.map Array.of_list lists))

let of_lists_typed lists =
  make_typed (Array.of_list (List.map Array.of_list lists))

let n_transactions s = Array.length s.start - 1

let format s =
  let fmt = Array.make (n_transactions s) 0 in
  for i = 0 to Array.length fmt - 1 do
    fmt.(i) <- s.start.(i + 1) - s.start.(i)
  done;
  fmt

let n_steps s = s.start.(n_transactions s)

let length s i =
  if i < 0 || i >= n_transactions s then invalid_arg "Syntax.length";
  s.start.(i + 1) - s.start.(i)

(* The slot of step [id], or -1 when it is no step of [s]. *)
let slot s (id : Names.step_id) =
  if id.tx < 0 || id.tx >= n_transactions s || id.idx < 0 then -1
  else
    let at = s.start.(id.tx) + id.idx in
    if at < s.start.(id.tx + 1) then at else -1

let var s id =
  let at = slot s id in
  if at < 0 then invalid_arg "Syntax.var: step out of range";
  s.names.(s.ids.(at))

let code_kind s at =
  if Bytes.length s.codes = 0 then Op.Update
  else Op.of_index (Char.code (Bytes.get s.codes at))

let kind s id =
  let at = slot s id in
  if at < 0 then invalid_arg "Syntax.kind: step out of range";
  code_kind s at

let typed s = Bytes.length s.codes > 0

let n_vars s = Array.length s.names

let ids s = s.ids

let start s = s.start

let codes s = s.codes

let var_name s v =
  if v < 0 || v >= n_vars s then invalid_arg "Syntax.var_name: id out of range";
  s.names.(v)

let vars s = List.sort String.compare (Array.to_list s.names)

let updates s i =
  if i < 0 || i >= n_transactions s then invalid_arg "Syntax.updates";
  let acc = ref Names.Vset.empty in
  for at = s.start.(i) to s.start.(i + 1) - 1 do
    if Op.writes (code_kind s at) then
      acc := Names.Vset.add s.names.(s.ids.(at)) !acc
  done;
  Names.Vset.elements !acc

let steps s =
  let acc = ref [] in
  for i = n_transactions s - 1 downto 0 do
    for j = length s i - 1 downto 0 do
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
   which is first-use order, and [build] renumbers the steps. The offsets
   and codes are shared. *)
let rename f s =
  let pool, index = intern [| Array.map f s.names |] in
  build "Syntax.rename" pool s.start s.codes (fun i j ->
      index.(0).(s.ids.(s.start.(i) + j)))

let equal a b =
  a.ids = b.ids && a.start = b.start && a.names = b.names
  && Bytes.equal a.codes b.codes

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  for i = 0 to n_transactions s - 1 do
    for j = 0 to length s i - 1 do
      let id = Names.step i j and at = s.start.(i) + j in
      if i > 0 || j > 0 then Format.fprintf ppf "@ ";
      match code_kind s at with
      | Op.Update ->
        Format.fprintf ppf "%a: %s" Names.pp_step id s.names.(s.ids.(at))
      | k ->
        Format.fprintf ppf "%a: %c(%s)" Names.pp_step id (Op.to_char k)
          s.names.(s.ids.(at))
    done
  done;
  Format.fprintf ppf "@]"
