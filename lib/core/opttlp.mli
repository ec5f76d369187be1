(** OptTLP determination (paper Section 4.1): by profiling — run each
    TLP in [1, MaxTLP] and keep the fastest — or statically, by
    mimicking GTO scheduling over computation/memory segments with a
    bandwidth and cache-contention model (Fig. 10b). *)

type profile_result =
  { opt_tlp : int
  ; samples : (int * int) list  (** (tlp, cycles), TLP ascending *)
  }

val profile :
  Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t
  -> ?input:Workloads.App.input
  -> ?kernel:Ptx.Kernel.t
  -> max_tlp:int
  -> unit
  -> profile_result
(** Default kernel: the app's kernel allocated at its default register
    count. The TLP ladder is submitted to the engine as one batch, so
    the samples fan across domains. *)

val estimate_static :
  Gpusim.Config.t -> Workloads.App.t -> ?input:Workloads.App.input -> max_tlp:int -> unit -> int
(** Static GTO-mimicking estimate (Fig. 10): trace one warp of the
    launch of [input] (default: the app's default input) into segments
    ({!Segments.trace}), then climb the TLP ladder [1 .. max_tlp] and
    return the last TLP [t] whose modelled cycles per block,
    [pb t = mimic_cycles t / t], is within 0.2% of the smallest [pb s]
    for [s < t]: on near-ties the higher TLP wins. The result equals
    that rule over the full ladder of {!mimic_cycles}, but a TLP whose
    [pb] provably exceeds the threshold is skipped on {!lower_bound},
    or its mimic stops as soon as its clocks pass the threshold. *)

val mimic_cycles :
  Gpusim.Config.t -> Segments.trace -> warps_per_block:int -> tlp:int -> float
(** Modelled cycles for one wave of [tlp] blocks of [warps_per_block]
    warps, each running the whole segment sequence. The scheduler is
    greedy-then-oldest: the warp that issued last goes on while it is
    ready, else the lowest-numbered ready warp; with no warp ready,
    time jumps to the earliest ready time. A computation segment
    occupies the issue pipeline for its latency; a memory segment for
    one cycle per line, then its misses queue on the DRAM server, and
    the warp is ready again after the larger of its contention-dependent
    latency and the server's time. Exposed for tests and the
    analytical-model ablation; [0.] for an empty trace or no warps. *)

val lower_bound :
  Gpusim.Config.t -> Segments.trace -> warps_per_block:int -> tlp:int -> float
(** A lower bound on {!mimic_cycles} at the same arguments: the largest
    of the issue pipeline's total work over all warps, the DRAM
    server's total service over all warps, and one warp's critical
    path (every segment's issue cost plus every memory latency),
    lowered by a relative 1e-6 that dominates the rounding of the float
    sums. *)
