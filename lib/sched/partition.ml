open Core

type t = {
  shards : int;
  n : int;
  shard_of_var : int array;
  vars : int array;
  start : int array;
  mask : int array;
  n_cross : int;
  cross_id : int array;
  members : int array array;
  slot : int array;
  local : int array;
}

let shard_of_var ~shards v = Hashtbl.hash (v : Names.var) mod shards

(* The number of bits set in [m]. *)
let rec count m = if m = 0 then 0 else 1 + count (m land (m - 1))

let make ~syntax ~shards =
  if shards < 1 || shards > 62 then
    invalid_arg "Partition.make: shards must be in 1..62";
  let n = Syntax.n_transactions syntax in
  let vars = Syntax.ids syntax and start = Syntax.start syntax in
  (* Each distinct variable is hashed once, by name, for its shard; a
     step's shard is read through its id in the syntax's own flat ids,
     so nothing is hashed or allocated per step. *)
  let shard_of_id =
    Array.init (Syntax.n_vars syntax) (fun v ->
        shard_of_var ~shards (Syntax.var_name syntax v))
  in
  (* One pass per transaction: its shard bits, its cross id if it crosses
     (two or more bits), its slots, and each shard's member count. *)
  let mask = Array.make n 0 and slot = Array.make (n + 1) 0 in
  let cross_id = Array.make n (-1) and n_cross = ref 0 in
  let size = Array.make shards 0 in
  for i = 0 to n - 1 do
    let m = ref 0 in
    for at = start.(i) to start.(i + 1) - 1 do
      m := !m lor (1 lsl shard_of_id.(vars.(at)))
    done;
    mask.(i) <- !m;
    if !m land (!m - 1) <> 0 then begin
      cross_id.(i) <- !n_cross;
      incr n_cross
    end;
    slot.(i + 1) <- slot.(i) + count !m;
    for s = 0 to shards - 1 do
      if !m land (1 lsl s) <> 0 then size.(s) <- size.(s) + 1
    done
  done;
  (* A second pass numbers each shard's members down from its count, last
     transaction first: ascending, one slot per membership. *)
  let members = Array.init shards (fun s -> Array.make size.(s) 0) in
  let local = Array.make slot.(n) 0 in
  for i = n - 1 downto 0 do
    let at = ref slot.(i + 1) in
    for s = shards - 1 downto 0 do
      if mask.(i) land (1 lsl s) <> 0 then begin
        size.(s) <- size.(s) - 1;
        decr at;
        local.(!at) <- size.(s);
        members.(s).(size.(s)) <- i
      end
    done
  done;
  { shards; n; shard_of_var = shard_of_id; vars; start; mask;
    n_cross = !n_cross; cross_id; members; slot; local }

(* One past a transaction's end is the next one's first slot, so the
   bound is checked here. *)
let shard p tx idx =
  let at = p.start.(tx) + idx in
  if idx < 0 || at >= p.start.(tx + 1) then
    invalid_arg "Sched.Partition.shard: step out of range";
  p.shard_of_var.(p.vars.(at))

let final p tx idx = p.start.(tx) + idx = p.start.(tx + 1) - 1

(* [tx]'s memberships below shard [s] come first in its slots. *)
let local_id p s tx =
  let m = p.mask.(tx) in
  if m land (1 lsl s) = 0 then -1
  else p.local.(p.slot.(tx) + count (m land ((1 lsl s) - 1)))

(* A cross-shard transaction is non-empty. *)
let cross_fraction p =
  let nonempty = ref 0 in
  Array.iter (fun m -> if m <> 0 then incr nonempty) p.mask;
  if !nonempty = 0 then 0.
  else float_of_int p.n_cross /. float_of_int !nonempty
