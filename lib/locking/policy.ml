open Core

type t = {
  name : string;
  apply : Syntax.t -> Locked.t;
}

let separable name f =
  let apply syntax =
    let n = Syntax.n_transactions syntax in
    let txs =
      List.init n (fun i ->
          let accesses =
            Array.init (Syntax.length syntax i) (fun j ->
                Syntax.var syntax (Names.step i j))
          in
          f i accesses)
    in
    Locked.make syntax txs
  in
  { name; apply }

let correct_exhaustive p syntax =
  let l = p.apply syntax in
  List.for_all (Conflict.serializable syntax) (Locked.outputs l)

let output_count p syntax = List.length (Locked.outputs (p.apply syntax))

let subset a b =
  List.for_all (fun h -> List.exists (Schedule.equal h) b) a

let dominates p q syntax =
  subset (Locked.outputs (q.apply syntax)) (Locked.outputs (p.apply syntax))

let strictly_better p q syntax =
  let op = Locked.outputs (p.apply syntax) in
  let oq = Locked.outputs (q.apply syntax) in
  subset oq op && not (subset op oq)
