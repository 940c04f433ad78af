let total fmt = Array.fold_left ( + ) 0 fmt

let count fmt =
  Array.iter (fun m -> if m < 0 then invalid_arg "Interleave.count: negative") fmt;
  (* Compute the multinomial incrementally as a product of binomials to
     keep intermediate values small: C(s1,m1) * C(s1+m2,m2) * ... *)
  let binom n k =
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        let acc = acc * (n - k + i) in
        if acc < 0 then invalid_arg "Interleave.count: overflow"
        else go (acc / i) (i + 1)
    in
    go 1 1
  in
  let _, c =
    Array.fold_left
      (fun (s, c) m ->
        let s = s + m in
        let c = c * binom s m in
        if c < 0 then invalid_arg "Interleave.count: overflow" else (s, c))
      (0, 1) fmt
  in
  c

let iter fmt f =
  let n = Array.length fmt in
  let len = total fmt in
  let remaining = Array.copy fmt in
  let buf = Array.make len 0 in
  let rec go pos =
    if pos = len then f buf
    else
      for i = 0 to n - 1 do
        if remaining.(i) > 0 then begin
          remaining.(i) <- remaining.(i) - 1;
          buf.(pos) <- i;
          go (pos + 1);
          remaining.(i) <- remaining.(i) + 1
        end
      done
  in
  if len = 0 then f buf else go 0

let all fmt =
  if count fmt > 2_000_000 then invalid_arg "Interleave.all: too many";
  let acc = ref [] in
  iter fmt (fun il -> acc := Array.copy il :: !acc);
  List.rev !acc

let fold fmt f init =
  let acc = ref init in
  iter fmt (fun il -> acc := f !acc il);
  !acc

(* Number of interleavings completing a partial state with [remaining]
   steps left per transaction. *)
let completions remaining = count remaining

let rank fmt il =
  let remaining = Array.copy fmt in
  let r = ref 0 in
  Array.iter
    (fun tx ->
      for i = 0 to tx - 1 do
        if remaining.(i) > 0 then begin
          remaining.(i) <- remaining.(i) - 1;
          r := !r + completions remaining;
          remaining.(i) <- remaining.(i) + 1
        end
      done;
      remaining.(tx) <- remaining.(tx) - 1)
    il;
  !r

let unrank fmt r =
  if r < 0 || r >= count fmt then invalid_arg "Interleave.unrank: out of range";
  let n = Array.length fmt in
  let len = total fmt in
  let remaining = Array.copy fmt in
  let il = Array.make len 0 in
  let r = ref r in
  for pos = 0 to len - 1 do
    let chosen = ref (-1) in
    let i = ref 0 in
    while !chosen < 0 && !i < n do
      if remaining.(!i) > 0 then begin
        remaining.(!i) <- remaining.(!i) - 1;
        let c = completions remaining in
        if !r < c then chosen := !i
        else begin
          r := !r - c;
          remaining.(!i) <- remaining.(!i) + 1
        end
      end;
      incr i
    done;
    il.(pos) <- !chosen
  done;
  il

(* Choose transaction i with probability remaining.(i) / left, which
   yields the uniform distribution over interleavings: draw k below left
   and take the smallest i whose prefix count of remaining steps exceeds
   k. The counts live in a Fenwick tree padded with zeros to a power of
   two [size], node j holding the counts of (j - lowbit j, j] (1-based).
   The descent from [size] visits one node per level: it takes the node
   (moves past it) when the node's count is at most what is left of k,
   and otherwise the chosen transaction lies inside it, so the same
   visit decrements it. The nodes not taken are exactly the nodes that
   cover the chosen leaf. [take] is -1 or 0 from the sign of
   [rem - t], so no step branches on the data. *)
let random st fmt =
  let n = Array.length fmt in
  let len = total fmt in
  let size = ref 1 in
  while !size < n do size := 2 * !size done;
  let size = !size in
  let tree = Array.make (size + 1) 0 in
  Array.blit fmt 0 tree 1 n;
  (* every node below [size] adds into its parent, padding included *)
  for j = 1 to size - 1 do
    let p = j + (j land -j) in
    tree.(p) <- tree.(p) + tree.(j)
  done;
  let il = Array.make len 0 in
  for left = len downto 1 do
    let k = Random.State.int st left in
    let pos = ref 0 and rem = ref k and step = ref size in
    while !step > 0 do
      let j = !pos + !step in
      let t = tree.(j) in
      let take = lnot ((!rem - t) asr (Sys.int_size - 1)) in
      tree.(j) <- t - (1 + take);
      pos := !pos + (!step land take);
      rem := !rem - (t land take);
      step := !step lsr 1
    done;
    il.(len - left) <- !pos
  done;
  il

let is_valid fmt il =
  let n = Array.length fmt in
  let counts = Array.make n 0 in
  try
    Array.iter
      (fun tx ->
        if tx < 0 || tx >= n then raise Exit;
        counts.(tx) <- counts.(tx) + 1)
      il;
    counts = fmt
  with Exit -> false

let serial fmt order =
  let parts =
    Array.to_list order
    |> List.map (fun tx -> Array.make fmt.(tx) tx)
  in
  Array.concat parts

let is_serial fmt il =
  let len = Array.length il in
  let rec go pos =
    if pos >= len then true
    else
      let tx = il.(pos) in
      let m = fmt.(tx) in
      let rec whole k =
        k = m || (pos + k < len && il.(pos + k) = tx && whole (k + 1))
      in
      whole 0 && go (pos + m)
  in
  go 0
