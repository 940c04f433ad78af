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

type spec
(** A preset: the cells and sweeps of every section. There are two, and
    both run every section. *)

val default : spec
(** Full run, the configuration of the committed [BENCH_sched.json]:
    4x4 / 8x8 / 16x8 over uniform, hot and zipf-skewed mixes; the
    sharded section — monolithic SGT vs {!Sched.Sharded} at K ∈ 1, 2, 4,
    8 over disjoint/hot/skewed at 64x2 and 256x2, with a 2048x2 disjoint
    scaling cell (contended mixes stop at n = 256 in the sharded and
    parallel sections: a single hot run at n >= 512 takes seconds); the
    multi-version section over rw-uniform/rw-hot/rw-readmost; the
    commutativity section over ctr-hot/ctr-skewed; the parallel sweep at
    1, 2, 4 and 8 domains over disjoint 2048x2 and 256x2 and hot 256x2;
    and the 2PC sweep at five fault rates. *)

val smoke : spec
(** The CI smoke: every section, engine and mix of {!default} at tiny
    sizes in a single pass — the sharded section at K = 4, the parallel
    sweep at 1 and 2 domains, the 2PC sweep at two fault rates. *)

(** {2 The report} *)

type report
(** Every table of one run: per timing section its rows, the admission
    tables and the 2PC sweep. *)

val run : spec -> report
(** Every section of the spec.

    Timing rows ([requests] served = grants + delays + aborts, wall-clock
    [seconds], [req_per_sec]): the single-version section (serial, 2PL,
    TO, SGT, SGT-ref), the multi-version section (SGT vs MVCC/SI/SSI over
    the typed read/update mixes), the commutativity section (SGT vs the
    semantic engine over the typed counter mixes), the sharded section
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
    the preset's commit rounds through a {!Sched.Twopc.service}, plus
    the forced coordinator-crash placements (crash between vote
    collection and decision broadcast) that measure the protocol's
    blocking window. *)

val to_json : spec -> report -> Obs.Json.t
(** The [BENCH_sched.json] schema, rendered with {!Obs.Json.pretty}:
    [{"benchmark", "unit", "config", "results": [row...],
    "sgt_speedup_vs_ref": {...}, "sharded_speedup_vs_sgt": {...},
    "parallel": {...}, "twopc": {...}, "semantic_section": {...},
    "mv_section": {...}}], every member in both presets. The
    ["semantic_section"] member holds the commutativity admission rows
    plus the per-cell ["speedup_vs_sgt"] map; ["parallel"] records
    [Domain.recommended_domain_count ()] alongside the speedups vs d1,
    so a reader can tell concurrent gains from algorithmic ones;
    ["twopc"] holds the fault-rate sweep rows plus the measured
    coordinator-crash blocking window. *)

val pp : Format.formatter -> report -> unit
(** The text tables: timing rows, each section's ratio table, the
    commutativity and multi-version admission tables, the 2PC sweep. *)
