(* Intrusive FIFO over a fixed universe [0 .. n-1].

   The driver's blocked queue needs O(1) membership, O(1) enqueue and
   O(1) removal of an arbitrary element while preserving FIFO order —
   the [int list] it replaces paid O(n) [List.mem] + O(n) append per
   request. Doubly linked through two index arrays; each element can be
   present at most once, and is present iff it has a predecessor or is
   the head, so membership needs no array of its own. *)

type t = {
  next : int array;
  prev : int array;
  mutable head : int; (* -1 when empty *)
  mutable tail : int;
  mutable size : int;
}

let create n =
  if n < 0 then invalid_arg "Intq.create: negative size";
  {
    next = Array.make n (-1);
    prev = Array.make n (-1);
    head = -1;
    tail = -1;
    size = 0;
  }

let check q i =
  if i < 0 || i >= Array.length q.next then
    invalid_arg "Intq: element out of range"

let present q i = q.prev.(i) >= 0 || q.head = i

let mem q i =
  check q i;
  present q i

let is_empty q = q.size = 0
let length q = q.size

let push q i =
  check q i;
  if not (present q i) then begin
    q.prev.(i) <- q.tail;
    q.next.(i) <- -1;
    if q.tail >= 0 then q.next.(q.tail) <- i else q.head <- i;
    q.tail <- i;
    q.size <- q.size + 1
  end

let remove q i =
  check q i;
  if present q i then begin
    let p = q.prev.(i) and n = q.next.(i) in
    if p >= 0 then q.next.(p) <- n else q.head <- n;
    if n >= 0 then q.prev.(n) <- p else q.tail <- p;
    q.prev.(i) <- -1;
    q.next.(i) <- -1;
    q.size <- q.size - 1
  end

let head q = q.head

let next q i =
  check q i;
  q.next.(i)

let to_list q =
  let rec walk i acc = if i < 0 then List.rev acc else walk q.next.(i) (i :: acc) in
  walk q.head []
