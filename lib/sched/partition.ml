open Core

type t = {
  shards : int;
  n : int;
  shard_of_step : int array array;
  lvar_of_step : int array array;
  mask : int array;
  cross : bool array;
  n_cross : int;
  cross_id : int array;
  members : int array array;
  local_id : int array array;
  n_lvars : int array;
}

let shard_of_var ~shards v = Hashtbl.hash (v : Names.var) mod shards

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let make ~syntax ~shards =
  if shards < 1 || shards > 62 then
    invalid_arg "Partition.make: shards must be in 1..62";
  let n = Syntax.n_transactions syntax in
  (* Each distinct variable is hashed once, by name, for its shard, and
     numbered within it in id order. Ids run in first-use order, so a
     shard's variables are numbered by their first use there, as interning
     step by step would number them. Nothing is hashed per step. *)
  let nv = Syntax.n_vars syntax in
  let shard_of_id = Array.make nv 0 and lvar_of_id = Array.make nv 0 in
  let n_lvars = Array.make shards 0 in
  for v = 0 to nv - 1 do
    let s = shard_of_var ~shards (Syntax.var_name syntax v) in
    shard_of_id.(v) <- s;
    lvar_of_id.(v) <- n_lvars.(s);
    n_lvars.(s) <- n_lvars.(s) + 1
  done;
  (* Rows are filled in place, not by [Array.map]: an array of more than
     256 slots whose first value is young forces a minor collection. *)
  let ids = Syntax.var_ids syntax in
  let shard_of_step = Array.make n [||] and lvar_of_step = Array.make n [||] in
  for i = 0 to n - 1 do
    shard_of_step.(i) <- Array.map (fun v -> shard_of_id.(v)) ids.(i);
    lvar_of_step.(i) <- Array.map (fun v -> lvar_of_id.(v)) ids.(i)
  done;
  let mask = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.iter (fun s -> mask.(i) <- mask.(i) lor (1 lsl s)) shard_of_step.(i)
  done;
  let cross = Array.map (fun m -> popcount m > 1) mask in
  let cross_id = Array.make n (-1) in
  let n_cross = ref 0 in
  for i = 0 to n - 1 do
    if cross.(i) then begin
      cross_id.(i) <- !n_cross;
      incr n_cross
    end
  done;
  (* Each shard's members, ascending, and their shard-local ids: counted
     first, then filled, so no list is built. *)
  let local_id = Array.init shards (fun _ -> Array.make n (-1)) in
  let size = Array.make shards 0 in
  for i = 0 to n - 1 do
    for s = 0 to shards - 1 do
      if mask.(i) land (1 lsl s) <> 0 then begin
        local_id.(s).(i) <- size.(s);
        size.(s) <- size.(s) + 1
      end
    done
  done;
  let members = Array.init shards (fun s -> Array.make size.(s) 0) in
  for s = 0 to shards - 1 do
    Array.iteri (fun i l -> if l >= 0 then members.(s).(l) <- i) local_id.(s)
  done;
  {
    shards;
    n;
    shard_of_step;
    lvar_of_step;
    mask;
    cross;
    n_cross = !n_cross;
    cross_id;
    members;
    local_id;
    n_lvars;
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
