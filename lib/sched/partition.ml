open Core

type t = {
  shards : int;
  n : int;
  shard_of_step : int array array;
  lvar_of_step : int array array;
  mask : int array;
  home : int array;
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
  let fmt = Syntax.format syntax in
  let n = Array.length fmt in
  (* one pass per step: hash the variable once, intern it once *)
  let lvar_tbls : (Names.var, int) Hashtbl.t array =
    Array.init shards (fun _ -> Hashtbl.create 16)
  in
  let n_lvars = Array.make shards 0 in
  (* Rows are filled in place, not by [Array.init]: an array of more than
     256 slots whose first value is young forces a minor collection. *)
  let shard_of_step = Array.make n [||] and lvar_of_step = Array.make n [||] in
  for i = 0 to n - 1 do
    shard_of_step.(i) <- Array.make fmt.(i) 0;
    lvar_of_step.(i) <- Array.make fmt.(i) 0;
    for j = 0 to fmt.(i) - 1 do
      let v = Syntax.var syntax (Names.step i j) in
      let s = shard_of_var ~shards v in
      shard_of_step.(i).(j) <- s;
      lvar_of_step.(i).(j) <-
        (match Hashtbl.find_opt lvar_tbls.(s) v with
        | Some k -> k
        | None ->
          let k = n_lvars.(s) in
          Hashtbl.add lvar_tbls.(s) v k;
          n_lvars.(s) <- k + 1;
          k)
    done
  done;
  let mask = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.iter (fun s -> mask.(i) <- mask.(i) lor (1 lsl s)) shard_of_step.(i)
  done;
  let cross = Array.map (fun m -> popcount m > 1) mask in
  let home =
    Array.init n (fun i ->
        if mask.(i) = 0 || cross.(i) then -1 else shard_of_step.(i).(0))
  in
  let cross_id = Array.make n (-1) in
  let n_cross = ref 0 in
  for i = 0 to n - 1 do
    if cross.(i) then begin
      cross_id.(i) <- !n_cross;
      incr n_cross
    end
  done;
  let members =
    Array.init shards (fun s ->
        let acc = ref [] in
        for i = n - 1 downto 0 do
          if mask.(i) land (1 lsl s) <> 0 then acc := i :: !acc
        done;
        Array.of_list !acc)
  in
  let local_id =
    Array.init shards (fun s ->
        let a = Array.make n (-1) in
        Array.iteri (fun l g -> a.(g) <- l) members.(s);
        a)
  in
  {
    shards;
    n;
    shard_of_step;
    lvar_of_step;
    mask;
    home;
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
