open Core

type t = {
  shards : int;
  n : int;
  shard_of_var : int array;
  ids : int array array;
  mask : int array;
  cross : bool array;
  n_cross : int;
  cross_id : int array;
  members : int array array;
  local_id : int array array;
}

let shard_of_var ~shards v = Hashtbl.hash (v : Names.var) mod shards

let make ~syntax ~shards =
  if shards < 1 || shards > 62 then
    invalid_arg "Partition.make: shards must be in 1..62";
  let n = Syntax.n_transactions syntax and ids = Syntax.var_ids syntax in
  (* Each distinct variable is hashed once, by name, for its shard; a
     step's shard is read through its id in the syntax's own rows, so
     nothing is hashed or allocated per step. *)
  let shard_of_id =
    Array.init (Syntax.n_vars syntax) (fun v ->
        shard_of_var ~shards (Syntax.var_name syntax v))
  in
  (* One pass per transaction: its shard bits, whether it crosses (two or
     more bits), and its shard-local ids, counted in ascending order. *)
  let mask = Array.make n 0 and cross = Array.make n false in
  let cross_id = Array.make n (-1) and n_cross = ref 0 in
  let local_id = Array.make_matrix shards n (-1) in
  let size = Array.make shards 0 in
  for i = 0 to n - 1 do
    let row = ids.(i) and m = ref 0 in
    for j = 0 to Array.length row - 1 do
      m := !m lor (1 lsl shard_of_id.(row.(j)))
    done;
    mask.(i) <- !m;
    if !m land (!m - 1) <> 0 then begin
      cross.(i) <- true;
      cross_id.(i) <- !n_cross;
      incr n_cross
    end;
    for s = 0 to shards - 1 do
      if !m land (1 lsl s) <> 0 then begin
        local_id.(s).(i) <- size.(s);
        size.(s) <- size.(s) + 1
      end
    done
  done;
  let members = Array.make shards [||] in
  for s = 0 to shards - 1 do
    let mem = Array.make size.(s) 0 and lid = local_id.(s) in
    for i = 0 to n - 1 do
      if lid.(i) >= 0 then mem.(lid.(i)) <- i
    done;
    members.(s) <- mem
  done;
  {
    shards;
    n;
    shard_of_var = shard_of_id;
    ids;
    mask;
    cross;
    n_cross = !n_cross;
    cross_id;
    members;
    local_id;
  }

let cross_fraction p =
  let nonempty = ref 0 and crossed = ref 0 in
  for i = 0 to p.n - 1 do
    if p.mask.(i) <> 0 then begin
      incr nonempty;
      if p.cross.(i) then incr crossed
    end
  done;
  if !nonempty = 0 then 0.
  else float_of_int !crossed /. float_of_int !nonempty
