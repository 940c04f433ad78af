open Core

(* ["v" ^ string_of_int i], written digit by digit. A pool is built per
   generated syntax, and [string_of_int] goes through the C format
   parser as [Printf.sprintf] does: 256 names cost about 33 us that way,
   49 us through [Printf] and 8 us here (one 2-vCPU Xeon, OCaml 5.1). *)
let pool_name i =
  let rec digits i = if i < 10 then 1 else 1 + digits (i / 10) in
  let len = 1 + digits i in
  let b = Bytes.create len in
  Bytes.set b 0 'v';
  let rec fill i k =
    Bytes.set b k (Char.chr (48 + (i mod 10)));
    if i >= 10 then fill (i / 10) (k - 1)
  in
  fill i (len - 1);
  Bytes.unsafe_to_string b

(* filled in place: [Array.init] over more than 256 names would start
   from a young string and force a minor collection *)
let pool n =
  let a = Array.make n "" in
  for i = 0 to n - 1 do
    a.(i) <- pool_name i
  done;
  a

let var_pool n = Array.to_list (pool n)

(* Every generator draws its steps in step order, transaction by
   transaction, and names them by pool index: [Syntax.init] calls the
   draw once per step in that order. *)
let uniform st ~n ~m ~n_vars =
  Syntax.init (pool n_vars) (Array.make n m) (fun _ _ ->
      Random.State.int st n_vars)

(* With a single variable every step is the hot spot: the cold branch
   would call [Random.State.int st 0], which raises. Draining the rng
   anyway would silently shift every later draw, so the clamp comes
   first. *)
let hot_pick st ~n_vars ~theta () =
  if n_vars = 1 || Random.State.float st 1.0 < theta then 0
  else 1 + Random.State.int st (n_vars - 1)

let zipf_pick st ~n_vars ~s =
  let weights = Array.init n_vars (fun i -> float_of_int (i + 1) ** -.s) in
  let total = Array.fold_left ( +. ) 0. weights in
  fun () ->
    let r = Random.State.float st total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if r < acc || i = n_vars - 1 then i else go (i + 1) acc
    in
    go 0 0.

let hotspot st ~n ~m ~n_vars ~theta =
  if n_vars < 1 then invalid_arg "Workload.hotspot: needs >= 1 variable";
  let pick = hot_pick st ~n_vars ~theta in
  Syntax.init (pool n_vars) (Array.make n m) (fun _ _ -> pick ())

let zipf st ~n ~m ~n_vars ~s =
  if n_vars < 1 then invalid_arg "Workload.zipf: needs >= 1 variable";
  let pick = zipf_pick st ~n_vars ~s in
  Syntax.init (pool n_vars) (Array.make n m) (fun _ _ -> pick ())

let mixed st ~n ~m ~n_vars ~read_frac ~theta =
  if n_vars < 1 then invalid_arg "Workload.mixed: needs >= 1 variable";
  let pick = hot_pick st ~n_vars ~theta in
  Syntax.init_typed (pool n_vars) (Array.make n m) (fun _ _ ->
      let k =
        if Random.State.float st 1.0 < read_frac then Op.Read else Op.Update
      in
      (k, pick ()))

(* Hot-key credits/debits: every step is an [Incr] or [Decr] on a
   hotspot-distributed variable, with a small fraction of [Read]
   audits. The workload every rw scheduler serializes on the hot key
   and the semantic scheduler admits without coordination. *)
let bump st ~read_frac =
  if Random.State.float st 1.0 < read_frac then Op.Read
  else if Random.State.bool st then Op.Incr
  else Op.Decr

let semantic_counters st ~n ~m ~n_vars ~theta ~read_frac =
  if n_vars < 1 then invalid_arg "Workload.semantic_counters: needs >= 1 variable";
  let pick = hot_pick st ~n_vars ~theta in
  Syntax.init_typed (pool n_vars) (Array.make n m) (fun _ _ ->
      let k = bump st ~read_frac in
      (k, pick ()))

(* The zipf-skewed variant: credits/debits over a zipfian key
   distribution. *)
let semantic_zipf st ~n ~m ~n_vars ~s ~read_frac =
  if n_vars < 1 then invalid_arg "Workload.semantic_zipf: needs >= 1 variable";
  let pick = zipf_pick st ~n_vars ~s in
  Syntax.init_typed (pool n_vars) (Array.make n m) (fun _ _ ->
      let k = bump st ~read_frac in
      (k, pick ()))

let disjoint ~n ~m = Syntax.init (pool n) (Array.make n m) (fun i _ -> i)

let chain ~depth =
  let vars = pool depth in
  (Array.to_list vars, List.init (depth - 1) (fun i -> (vars.(i + 1), vars.(i))))

let counters syntax =
  let interp =
    Array.map
      (fun m -> Array.init m (fun j -> Expr.Ast.(Add (Local j, int 1))))
      (Syntax.format syntax)
  in
  System.make syntax interp

let transfers syntax =
  let interp =
    Array.map
      (fun m ->
        Array.init m (fun j ->
            if j mod 2 = 0 then Expr.Ast.(Add (Local j, int 1))
            else Expr.Ast.(Sub (Local j, int 1))))
      (Syntax.format syntax)
  in
  System.make syntax interp
