(** Kernel segmentation for the static OptTLP analysis (paper Fig. 10a).

    A single warp of block 0 is traced functionally; its instruction
    stream is chunked into computation segments (summed pipeline
    latencies) separated by global/local memory segments (coalesced
    line counts). The trace also yields the line-reuse ratio and
    per-block footprint that parameterise the cache-contention model. *)

type segment =
  | Compute of int  (** summed latency in cycles *)
  | Mem of int  (** number of coalesced line segments *)

type trace =
  { segments : segment list
  ; total_line_refs : int
  ; distinct_lines : int
  ; footprint_bytes : int  (** distinct lines touched x line size *)
  ; reuse_ratio : float
      (** 1 - distinct/total: upper bound on the L1 hit rate *)
  }

val of_launch : Gpusim.Config.t -> Gpusim.Launch.t -> trace
(** Trace warp 0 of block 0 of a launch. Barriers are ignored (a single
    warp cannot synchronise); shared-memory accesses are folded into
    computation segments at the shared-memory latency. The warp runs
    on a copy of the launch's memory.
    @raise Gpusim.Simt.Over_budget instead of running the warp's
    instruction 2_000_001 ({!Gpusim.Simt.budget}'s rule). *)

val trace : Gpusim.Config.t -> Workloads.App.t -> Workloads.App.input -> trace
(** {!of_launch} on the app's launch of [input], with the shared memory
    image of a one-block grid, which holds block 0's input region only;
    equal to the trace of the full-grid launch. *)

val pp : Format.formatter -> trace -> unit
