open Core

(** Scheduler micro-benchmark harness: requests/sec per scheduler across
    workload sizes and variable-access mixes.

    Each cell fixes a deterministic syntax and a set of arrival streams
    (identical for every scheduler), drives them through
    {!Sched.Driver.run} in interleaved rounds — one timed pass of each
    scheduler per round, so CPU frequency drift cannot masquerade as a
    between-scheduler speedup — until the cell's time budget is spent,
    and reports served requests per wall-clock second. The suite includes
    both the incremental SGT and the brute-force {!Sched.Sgt_ref}
    oracle, so the emitted report records the speedup of the
    incremental hot path directly. Surfaced as [ccopt bench] and as
    bench experiment B1; the JSON form is the schema of
    [BENCH_sched.json]. *)

type spec = {
  sizes : (int * int) list;  (** (n transactions, m steps) per cell *)
  mixes : string list;       (** names from {!mix_names} *)
  n_vars : int;
  streams : int;             (** arrival streams per cell *)
  min_time : float;          (** per-cell time budget, seconds *)
  seed : int;
  shard_ks : int list;
      (** sharded-engine section: K values ([[]] disables the section) *)
  shard_sizes : (int * int) list;
      (** sizes of the sharded section; contended (non-disjoint) mixes
          are capped at [n <= 256] — a single hot run at [n >= 512]
          takes seconds, starving every other cell — while disjoint
          cells run at every size to expose the scaling *)
  shard_mixes : string list;       (** mixes of the sharded section *)
  mv_sizes : (int * int) list;
      (** multi-version section sizes ([[]] disables the section) *)
  mv_mixes : string list;
      (** multi-version section mixes, typically the typed
          ["rw-uniform"]/["rw-hot"] read/update mixes *)
  mv_samples : int;
      (** Monte-Carlo samples behind each [breadth] estimate *)
  sem_sizes : (int * int) list;
      (** commutativity section sizes ([[]] disables the section) *)
  sem_mixes : string list;
      (** commutativity section mixes, typically the typed
          ["ctr-hot"]/["ctr-skewed"] counter mixes where {!Core.Commute}
          actually removes conflict edges *)
  sem_samples : int;
      (** Monte-Carlo samples behind each semantic [breadth] estimate *)
  par_domains : int list;
      (** parallel-execution section: domain counts to sweep ([[]]
          disables the section; include [1] — it is the wall-clock
          baseline the speedup map divides by). Each variant runs one
          shard per domain (K = D handed to {!Sched.Parallel.run}), so
          the d1 baseline is the monolithic single-shard engine on one
          domain and the sweep is the engine's end-to-end scaling
          curve. *)
  par_sizes : (int * int) list;
      (** parallel-section sizes; contended mixes capped at [n <= 256]
          as in the sharded section *)
  par_mixes : string list;
  par_streams : int;
      (** arrival streams per parallel cell (each pass replays all of
          them; kept separate from [streams] because a parallel pass at
          n = 2048 is orders of magnitude more work than a 16x8 cell) *)
  twopc_fault_rates : float list;
      (** distributed-commit section: crash rates to sweep ([[]]
          disables the section; the slow-link rate rides along at half
          the crash rate) *)
  twopc_rounds : int;  (** commit rounds per fault rate *)
  twopc_parts : int;   (** participants per round *)
}

val default : spec
(** Full run: 4x4 / 8x8 / 16x8 over uniform, hot and zipf-skewed mixes,
    plus the sharded section — monolithic SGT vs {!Sched.Sharded} at
    K ∈ 1, 2, 4, 8 over disjoint/hot/skewed at 64x2 and 256x2, with a
    2048x2 disjoint scaling cell. *)

val smoke : spec
(** Tiny sizes, single pass — the CI smoke configuration (sharded
    section at K = 4 over one disjoint cell). *)

val mix_names : string list
(** Every workload mix {!syntax_of_mix} accepts. *)

val syntax_of_mix :
  Random.State.t -> mix:string -> n:int -> m:int -> n_vars:int -> Syntax.t
(** The workload generator behind a mix name. Raises [Invalid_argument]
    on an unknown mix. *)

val parse_sizes : flag:string -> string -> (int * int) list
(** A comma-separated [NxM] list as given to the size flag named
    [flag] ([--sizes], [--shard-sizes], ...); empty items are skipped,
    so [""] is [[]]. Raises [Invalid_argument] naming [flag] on a
    malformed or non-positive cell. *)

val parse_ints : flag:string -> string -> int list
(** A comma-separated list of positive integers ([--shards],
    [--domains]), with the same conventions as {!parse_sizes}. *)

(** {2 The report} *)

type report
(** Every table of one run: per timing section its rows, the admission
    tables and the 2PC sweep. *)

val run : spec -> report
(** Every section of the spec.

    Timing rows ([requests] served = grants + delays + aborts, wall-clock
    [seconds], [req_per_sec]): the single-version section (serial, 2PL,
    TO, SGT, SGT-ref), the multi-version section (SGT vs MVCC/SI/SSI over
    [mv_mixes] x [mv_sizes]), the commutativity section (SGT vs the
    semantic engine over [sem_mixes] x [sem_sizes]), the sharded section
    and the parallel section. Engines resolve through {!Sched.Registry},
    except the per-K sharded variants and the {!Sched.Parallel} passes.

    Admission tables, per cell and engine: the Monte-Carlo breadth
    [|P| / |H|] ({!Sched.Driver.zero_delay_fraction}, the paper's
    admission-breadth measure, §6) and event counts over a traced pass
    of the cell's streams — delays, commute passes and the accesses they
    skipped for rw-SGT vs the semantic engine; commits,
    first-committer-wins refusals, SSI pivot refusals and the acyclic
    (false-positive) ones among them for SGT vs MVCC/SI/SSI.

    The 2PC sweep runs in virtual time, so its numbers are decision
    counts and virtual latencies, not wall-clock: per fault rate,
    [twopc_rounds] commit rounds through a {!Sched.Twopc.service}, plus
    the forced coordinator-crash placements (crash between vote
    collection and decision broadcast) that measure the protocol's
    blocking window. *)

val to_json : spec -> report -> Obs.Json.t
(** The [BENCH_sched.json] schema, rendered with {!Obs.Json.pretty}:
    [{"benchmark", "unit", "config", "results": [row...],
    "sgt_speedup_vs_ref": {...}, "sharded_speedup_vs_sgt": {...},
    "parallel": {...}, "twopc": {...}, "semantic_section": {...},
    "mv_section": {...}}]. The ["semantic_section"] member appears only
    with commutativity stats: the admission rows plus the per-cell
    ["speedup_vs_sgt"] map. The ["parallel"] member appears only when
    some multi-domain variant has a d1 baseline in its cell; it records
    [Domain.recommended_domain_count ()] alongside the speedups so a
    reader can tell concurrent gains from algorithmic ones. The
    ["twopc"] member appears only with a 2PC section: the fault-rate
    sweep rows plus the measured coordinator-crash blocking window. *)

val pp : Format.formatter -> report -> unit
(** The text tables: timing rows, each section's ratio table, the
    commutativity and multi-version admission tables, the 2PC sweep. *)
