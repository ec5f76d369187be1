(** Suite driver for the hybrid memory-safety sanitizer.

    {!stages} proves a workload's bounds at the three compiler stages
    ([pre-opt], [post-opt], [post-alloc]) — the last one covering the
    allocator's spill code, whose shared spill stack is held to
    per-thread sub-stacks. {!validate} arms the residual checks and
    runs the default launch through {!Gpusim.Emulator}: the dynamic
    counters say what fraction of lane accesses still paid a bounds
    test, and any recorded violation (or proven-OOB static verdict)
    becomes a failure line. *)

type stage_report =
  { stage : string
  ; report : (Verify.Sanitize.report, string) result
      (** [Error msg]: the allocator rejected the register limit *)
  }

val stages : ?regs:int -> ?spare:int -> Workloads.App.t -> stage_report list
(** Static bounds reports at each stage. [regs] is the allocator's
    register limit (default: the app's), [spare] enables the shared
    spill policy with that many spare bytes. A limit the allocator
    rejects leaves the post-alloc stage an [Error]; the unallocated
    stages are reported all the same. *)

type dynamic =
  { report : Verify.Sanitize.report
      (** launch-specialised static report for the raw kernel *)
  ; counters : Gpusim.Sancheck.counters  (** residual-check counters *)
  ; failures : string list  (** empty when the launch is clean *)
  }

val validate :
  ?cfg:Gpusim.Config.t -> ?input:Workloads.App.input -> Workloads.App.t -> dynamic
(** Execute the app's launch with the sanitizer armed, on a copy of
    the input's shared image, through {!Gpusim.Emulator.run}, and
    return its counters. *)
