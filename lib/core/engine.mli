(** The evaluation engine: thread-safe, content-addressed memos of
    allocation and simulation results, plus a work-queue scheduler that
    fans independent jobs across OCaml domains.

    Every experiment driver evaluates the same (kernel build, config,
    input, TLP) points repeatedly across figures, and the points of one
    sweep are independent of each other. The engine memoizes each
    simulation under a structural key — a digest of the launch (kernel
    image, geometry, parameters, canonical initial-memory fingerprint),
    the simulated configuration, the TLP and the {!model_epoch} — so
    two different kernel builds can never alias, and re-runnable batches
    fan out across [jobs] domains.

    Statistics, allocations, traces and resource analyses each live in
    one claim-or-wait
    {!Memo.t} shared by every caller (batches on any domain, daemon
    connections): a key another caller is computing is waited for, not
    computed again.

    Trace-driven replay: the dynamic (pc, mask, address) trace of a
    launch is invariant across timing configurations, so the trace memo
    is keyed by launch only (no config, no TLP). The first simulation of
    a launch records its trace as a side effect; every later (config,
    tlp) point of the same launch replays it through the timing layer,
    skipping functional execution. Replayed statistics are bit-identical
    to cold runs — replay is a pure caching layer. Disable with
    [~replay:false].

    Determinism: simulations are pure functions of their key, so the
    statistics returned for any job are bit-identical whatever [jobs]
    is and whether replay is on; [~jobs:1] additionally executes
    batches serially in submission order. *)

type t

(** Observability counters, cumulative since {!create}/{!reset}. *)
type report =
  { jobs : int  (** configured parallelism *)
  ; sim_runs : int  (** simulations actually executed (memo misses) *)
  ; sim_hits : int
      (** points answered from the stats memo, in memory or on disk *)
  ; dedup_hits : int
      (** of [sim_hits], keys answered by waiting on another caller's
          claim instead of computing them *)
  ; trace_records : int  (** executions that recorded a launch trace *)
  ; trace_replays : int  (** executions driven from a recorded trace *)
  ; alloc_runs : int
  ; alloc_hits : int
  }

val create :
  ?jobs:int -> ?replay:bool -> ?trace_budget:int -> ?store:Store.t -> unit -> t
(** Fresh engine with empty memos. [jobs] (default 1) is the number of
    worker domains batches may fan across; [jobs = 1] never spawns a
    domain, and the effective width is clamped to
    [Domain.recommended_domain_count] (oversubscribing cores only adds
    GC-barrier overhead, and cannot change any answer).
    [replay] (default true) enables the trace memo;
    [trace_budget] (default [2{^25}]) bounds its resident footprint in
    trace events ({!Gpusim.Replay.events}), evicting oldest-first.

    [store] plugs in a persistent content-addressed {!Store.t}: every
    recorded trace, allocation and simulation statistic is written
    through to it (kinds ["trace"]/["alloc"]/["stats"] under the
    engine's structural keys), and claimed in-memory misses fall back to
    it before paying functional execution — so each launch is recorded
    once ever, across processes, and a trace evicted from memory is
    read back rather than recorded again. Disk answers are bit-identical
    to in-process ones (values round-trip through [Marshal]); with the
    verify gate armed, allocations are recomputed rather than read back,
    so gate checks always run.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int

val store : t -> Store.t option
(** The persistent store this engine writes through to, if any. *)

val model_epoch : string
(** Digest of the cold {!Gpusim.Stats.t} over the statdump surface
    (every workload, default and r20-allocated builds, TLP 1 and 3,
    2 blocks), pinned by a tier-1 test. Every simulation and allocation
    key folds it in, so a simulator or allocator change that moves the surface
    must update it, and updating it orphans every stored answer of the
    old model. *)

val alloc_epoch : string
(** Digest of the allocation surface (every workload under each
    strategy, backend partition, shared spare and two limits; see
    [test/support/surface.mli]), pinned by a tier-1 test. Every
    allocation key folds it in beside {!model_epoch}, so an allocator
    change that moves any allocation the engine can memoize must update
    it, which orphans the stored allocations of the old allocator. *)

val sim_key : t -> Gpusim.Launch.t -> Gpusim.Config.t -> tlp:int -> string
(** The content-addressed stats-memo key (hex digest) — exposed for
    the key-injectivity tests. Structural: covers the launch (kernel
    image — hence register limit and spill layout — geometry, params,
    initial memory), configuration, TLP and {!model_epoch}. *)

val launch_key : t -> Gpusim.Launch.t -> string
(** The trace-memo key: like {!sim_key} but with no configuration and
    no TLP — all timing points of one launch share it. It hashes the
    geometry and parameters with two cached digests: the kernel's,
    computed once per physical kernel, and the memory image's, which a
    frozen image ({!Workloads.App.memory}) carries. *)

val allocate :
  t
  -> ?strategy:Regalloc.Allocator.strategy
  -> ?backend:Machine.Backend.t
  -> ?shared_spare:int
  -> Workloads.App.t
  -> reg_limit:int
  -> Regalloc.Allocator.t
(** Allocate the app's kernel at a per-thread limit, memoized on the
    pre-allocation kernel image, strategy, backend, block size,
    [reg_limit] and [shared_spare]; [shared_spare > 0] enables
    Algorithm 1 with that many spare shared bytes per block.
    [backend] (default [Ptx]) joins the memo key; [Machine] colours the
    proven-uniform registers against the scalar file ({!Compile.scalar}).
    A miss is computed by {!Compile.allocate} under the app's
    abbreviation, so the armed verify gate checks every edge of it.
    When {!resource} kept the app's MaxReg allocation for this backend
    and limit (Chaitin-Briggs only), the miss takes it instead and runs
    the same gate stages on it ({!Compile.gated}): it is the value
    {!Compile.allocate} would return, at any [shared_spare]. The first
    answer to the key, a miss or a hit, drops the kept allocation. *)

val resource :
  t -> ?backend:Machine.Backend.t -> Gpusim.Config.t -> Workloads.App.t -> Resource.t
(** {!Resource.analyze}, memoized in memory on the app descriptor,
    configuration and [backend] (default [Ptx]): a sweep that compares
    several techniques on one kernel and target analyses it once. Never
    written to the store. The analysis runs as
    {!Resource.analyze_and_finish}, and the engine keeps the MaxReg
    allocation it finishes for the next {!allocate} at MaxReg. *)

val simulate :
  t
  -> Gpusim.Launch.t
  -> Gpusim.Config.t
  -> tlp:int
  -> Gpusim.Stats.t
(** Simulate one launch point through the memos: answer from the stats
    memo when possible, else replay the launch's recorded trace under
    the given config/TLP, else run cold (recording the trace for next
    time). *)

val simulate_batch :
  t
  -> (Gpusim.Launch.t * Gpusim.Config.t * int) list
  -> Gpusim.Stats.t list
(** Evaluate a whole frontier at once: results in submission order
    (each triple is [(launch, config, tlp)]). Duplicate and memoized
    keys are answered from the memo; the absent ones are claimed in one
    critical section and tried on disk, then fan across up to [jobs]
    domains in two waves — one recording run per launch whose trace this
    call claimed, then every other point replaying — each published as
    it finishes. Keys another caller claimed are awaited last (and
    recomputed if it gave up); unpublished claims are abandoned if the
    batch raises. Sweep-shaped drivers (fig2, fig13, fig18, ...) should
    build their full point list and submit it here rather than looping
    over {!simulate}. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Domain-parallel [List.map] for coarse-grained independent work
    (e.g. one full app comparison per item). [f] may itself use the
    engine: nested calls detect that they already run on a worker
    domain and execute serially instead of spawning. Results keep list
    order; an exception in any [f] is re-raised after all workers
    join. *)

val report : t -> report
val reset : t -> unit
(** Drop all memos (stats, traces, allocations, resources), every kept
    MaxReg allocation, and zero counters. *)

val pp_report : Format.formatter -> report -> unit
(** One-line summary, e.g. for the end of an experiment run. *)
