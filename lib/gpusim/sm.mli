(** Cycle-level SM timing simulator.

    One streaming multiprocessor executes thread blocks under a TLP
    limit (concurrent blocks), with:
    - [num_schedulers] greedy-then-oldest (GTO) warp schedulers, one
      issue per scheduler per cycle;
    - a scoreboard per warp (RAW/WAW on register slots);
    - a load/store unit with a bounded segment queue; warp accesses are
      coalesced into L1-line segments; MSHR reservation failures replay
      and are charged as cache-congestion stalls;
    - an L1 data cache backed by a (possibly shared) L2, interconnect
      and DRAM bandwidth model; shared memory has fixed latency plus
      bank-conflict serialisation;
    - block-level barriers and a block dispatcher that refills freed
      slots, mirroring the paper's thread-block-level throttling.

    [Sm] only times: every warp slot reads a {!Replay} cursor. A cold
    {!run} first records the launch's trace through {!Emulator.run},
    then replays it, so cold and replayed statistics are bit-identical.
    That functional pass follows {!Simt.run_block}'s barrier-quantum
    order, not the timing schedule (the same trace for the race-free
    kernels modelled), so a barrier deadlock raises [Failure], as
    {!Emulator.run} does, instead of running on to {!Cycle_limit}.

    The stepping API ({!create}/{!step}) lets {!Gpu} advance several SMs
    against one shared memory hierarchy; {!run} is the single-SM
    convenience wrapper used throughout the experiments.

    Per-cycle cost. Each warp caches its wake time (the latest
    scoreboard release over the registers its next instruction uses and
    defines) and its flags (done, at a barrier, next instruction on the
    global-memory LSU path), and each scheduler's pool copies both into
    flat arrays. They are written exactly where they change: an issue,
    a load's last segment returning, a barrier release and a pool
    rebuild. Each scheduler then finds its warp and its stall reason in
    one pass over two int arrays. {!step} advances exactly one cycle;
    {!run} may also jump over cycles in which nothing can change: no
    issue, no pool rebuild or controller window due, and an LSU that is
    either empty or whose head allocates an L1 line and was refused for
    a full MSHR file (up to the earliest MSHR completion). It charges
    each scheduler's stall reason, and a refused head's replay and
    L1 reservation failure, for the whole span, with results identical
    to stepping them one by one. A bypassing or write-through head never
    starts a jump: its retries reach the L2. *)

exception Cycle_limit of Stats.t
(** The statistics at the limit. When the functional pass was cut
    short, they time the recorded prefix. *)

(** The levels behind the per-SM L1: shared between SMs in a multi-SM
    simulation. *)
type shared_memsys

val make_shared : Config.t -> shared_memsys
val shared_dram_bytes : shared_memsys -> int
val shared_l2_stats : shared_memsys -> Cache.stats

type t

val create :
  ?scheduler:[ `Gto | `Lrr ]
  -> ?dynamic_tlp:bool
      (** DynCTA-style runtime throttling (Kayiran et al., the paper's
          reference [3]): a controller samples cache-congestion pressure
          each window and pauses/resumes resident thread blocks. The
          OptTLP baseline is this technique's offline-profiled optimum *)
  -> ?bypass_global:bool
      (** static L1 bypassing for global traffic (loads and stores go
          straight to the interconnect/L2); local spill traffic still
          caches. An extension hook: the paper notes CRAT composes with
          cache-bypassing techniques *)
  -> Config.t
  -> shared_memsys
  -> next_block:(unit -> int option)
      (** global block dispenser: called whenever a slot frees; [None]
          when the grid is exhausted *)
  -> Replay.t  (** the launch's trace; global memory is never touched *)
  -> Launch.t
  -> t
(** Block ids come from [next_block], the TLP limit from the launch,
    whose geometry must match the trace's and whose [warp_size] must
    equal the configuration's. *)

val step : t -> unit
(** Advance exactly one cycle. *)

val busy : t -> bool
(** Blocks resident or still obtainable from the dispenser. *)

val finalize : t -> Stats.t
(** Stamp cycle count and copy L1/L2 statistics into the result. *)

val run :
  ?max_cycles:int
  -> ?scheduler:[ `Gto | `Lrr ]
  -> ?bypass_global:bool
  -> ?dynamic_tlp:bool
  -> ?record:Replay.t
  -> ?replay:Replay.t
  -> Config.t
  -> Launch.t
  -> Stats.t
(** Single-SM convenience: private memory hierarchy, sequential block
    ids [0 .. num_blocks-1]; the launch's [tlp_limit] bounds concurrent
    blocks. The launch's memory is never written. With [replay], that
    finished trace is timed. Otherwise the launch first executes
    functionally ({!Emulator.run}) into [record] — an empty trace
    for the launch, or a fresh one — which is then timed. The pass stops
    once it has recorded more warp instructions than [max_cycles] can
    issue, so a kernel that never exits still ends in {!Cycle_limit}.
    @raise Cycle_limit when [max_cycles] (default 40_000_000) elapses.
    @raise Failure on barrier deadlock or divergent return. *)
