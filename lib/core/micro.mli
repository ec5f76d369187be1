(** Micro-benchmarks measuring per-access delay of local vs shared
    memory on the simulated architecture — the [Cost_local] and
    [Cost_shm] constants of the TPSC metric (paper Section 6:
    "measured on the target architecture through micro benchmarks"). *)

type costs =
  { cost_local : float
  ; cost_shm : float
  }

val measure : Gpusim.Config.t -> costs
(** Runs two pointer-free micro-kernels (a local-memory and a
    shared-memory access loop) on one warp and divides cycles by
    accesses. Memoized per configuration, process-wide. *)
