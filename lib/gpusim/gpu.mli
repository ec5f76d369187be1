(** Whole-GPU simulation: several SMs advancing in lock-step against one
    shared L2 / interconnect / DRAM, pulling thread blocks from a global
    dispatcher — the full configuration of the paper's Table 2 (15 SMs).

    The per-SM experiments use {!Sm.run} (the paper's metrics are
    per-SM); this module backs the multi-SM scalability study and shows
    that shared-bandwidth contention, not SM count, bounds throughput
    for memory-bound kernels.

    The launch is executed functionally once, through {!Emulator.run},
    and every SM replays its blocks from that one trace. The per-cycle
    driver is allocation-free (flat running flags, no per-cycle
    closures), matching {!Sm}'s scratch-buffer discipline. *)

type result =
  { per_sm : Stats.t array
  ; total_cycles : int  (** cycles until the last SM finished *)
  ; dram_bytes : int
  ; l2 : Cache.stats
  }

exception Cycle_limit of result

val run :
  ?sms:int
  -> ?max_cycles:int
  -> ?scheduler:[ `Gto | `Lrr ]
  -> Config.t
  -> Launch.t
  -> result
(** Simulate [sms] SMs (default: the configuration's [num_sms]) on
    the trace {!Emulator.run} records; the launch is not written.
    Blocks are dispatched globally in id order as slots free up; the
    launch's [tlp_limit] bounds concurrent blocks per SM. As in {!Sm.run}, a kernel that never
    exits still ends in {!Cycle_limit}.
    @raise Cycle_limit when [max_cycles] (default 40_000_000) elapses.
    @raise Failure on barrier deadlock or divergent return. *)

val aggregate_ipc : result -> float
(** Total warp instructions per cycle across all SMs. *)
