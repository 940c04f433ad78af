(* The four workloads. Each pairs one engine with one generator; a batch
   is [n] transactions of [m] steps, so [n * m] arrivals. Rates are 25-40%
   of the engine's unpaced capacity on a 2-vCPU host, so host drift does
   not tip a workload into saturation (README.md has the measurements). *)

open Core

type cross = tx:int -> shards:int list -> bool

type engine =
  | Registry of Sched.Registry.entry
  | Sharded_2pc of int
      (** the [sharded-2pc] registry entry (K shards, fault-free 2PC),
          built from its parts so the [commit_cross] hook can be wrapped *)

type t = {
  name : string;
  engine : engine;
  n : int;
  m : int;
  rate : int;  (** arrivals per second, open loop *)
  gen : Random.State.t -> n:int -> m:int -> Syntax.t;
}

let all =
  [
    (* Every decision runs the Commute filter over (tx, Op.t) accessor
       lists: the semantic engine's per-decision price for the commuting
       bumps it admits. *)
    {
      name = "ctr-hot";
      engine = Registry (Sched.Registry.find_exn "semantic");
      n = 16;
      m = 8;
      rate = 200_000;
      gen =
        (fun st ~n ~m ->
          Sim.Workload.semantic_counters st ~n ~m ~n_vars:8 ~theta:0.8
            ~read_frac:0.1);
    };
    (* The same shape with every pair conflicting and no commute filter:
       admission search, edge insertion and driver rescans. *)
    {
      name = "hot";
      engine = Registry (Sched.Registry.find_exn "sgt");
      n = 16;
      m = 8;
      rate = 350_000;
      gen =
        (fun st ~n ~m -> Sim.Workload.hotspot st ~n ~m ~n_vars:8 ~theta:0.8);
    };
    (* No conflicts, so admission is trivial and the cost is removal
       (prune scans all n transactions, forget scans every variable) plus
       the work every request costs; set-up builds the n^2 matrix of
       Digraph.Acyclic. At n = 256 the scans are about 40% of a
       transaction's cost. The host factor (Host) follows allocation
       better than these scans, so a larger n follows the host's speed
       less well: at 512 (scans 54%) one set of 10 runs spread 23% on
       p50; at 2048 (5 MiB of state, past a core's L2) capacity spread
       14% and p99 80%. *)
    {
      name = "disjoint";
      engine = Registry (Sched.Registry.find_exn "sgt");
      n = 256;
      m = 2;
      rate = 200_000;
      gen = (fun _ ~n ~m -> Sim.Workload.disjoint ~n ~m);
    };
    (* Partition routing, the coordinator's summary graph, and one 2PC
       round per cross-shard commit. *)
    {
      name = "skewed";
      engine = Sharded_2pc 4;
      n = 64;
      m = 2;
      rate = 10_000;
      gen = (fun st ~n ~m -> Sim.Workload.zipf st ~n ~m ~n_vars:8 ~s:1.2);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let engine_name w =
  match w.engine with
  | Registry e -> e.name
  | Sharded_2pc k ->
    Printf.sprintf "%s K=%d" (Sched.Registry.find_exn "sharded-2pc").name k

(* A fresh engine over [syntax]. [cross] wraps the 2PC commit hook (the
   traced pass times it); engines without one ignore it. *)
let make w ~sink ~(cross : cross -> cross) syntax =
  match w.engine with
  | Registry e -> e.make ~sink syntax
  | Sharded_2pc shards ->
    let svc = Sched.Twopc.service ~sink ~shards () in
    Sched.Sharded.create ~sink ~shards
      ~commit_cross:(cross (Sched.Twopc.commit svc))
      ~syntax ()

let shards w = match w.engine with Registry _ -> 0 | Sharded_2pc k -> k
