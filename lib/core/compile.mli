(** The one compile path: every allocation the engine, the resource
    analysis, the CLI and the stage sweeps make goes through
    {!allocate}, so each of them derives the allocator's arguments from
    the backend the same way and runs the same verify-gate checks at
    each edge. The one allocation made elsewhere, the MaxReg allocation
    a resource analysis finishes, passes the same checks through
    {!gated} before the engine hands it out. The ablation drivers in {!Experiments} build their
    default-knob allocations through {!Engine.allocate}; only the four
    builds that pass a knob this module does not carry (fig8's var1,
    abl-chunk's chunks 1 and 1000, abl-alloc's [+remat]) call the
    allocator directly. *)

val scalar :
  Machine.Backend.t -> block_size:int -> Ptx.Kernel.t -> (Ptx.Reg.t -> bool) * int
(** The backend's scalar partition, as [(scalar, scalar_limit)] for
    {!Regalloc.Allocator.allocate} and {!Regalloc.Allocator.probe}:
    nothing and [0] under [Ptx]; {!Machine.Scalarize.predicate} and
    {!Machine.Backend.default_scalar_limit} under [Machine]. *)

val allocate :
  ?strategy:Regalloc.Allocator.strategy
  -> ?backend:Machine.Backend.t
  -> ?shared_spare:int
  -> label:string
  -> block_size:int
  -> reg_limit:int
  -> Ptx.Kernel.t
  -> Regalloc.Allocator.t
(** The gated allocation of [kernel] at [reg_limit]. [strategy]
    (default Chaitin-Briggs) and [backend] (default [Ptx]) are as for
    the allocator and {!scalar}; [shared_spare > 0] (default 0) enables
    Algorithm 1 with that many spare shared bytes per block. With the
    verify gate armed ({!Verify.Gate}), each edge is checked and
    rejected under the stage [label ^ ":pre-alloc"] and so on:
    - pre-alloc: [Kernel] and [Sanitize] on [kernel];
    - post-alloc: [Allocation], [Equiv_alloc] and [Sanitize] on the
      allocated kernel;
    - post-lower (machine backend only): the allocation is lowered, then
      [Machine] and [Equiv_lower].
    With the gate off it is exactly one allocator call.
    @raise Failure as the allocator does, when [reg_limit] is below the
    kernel's feasible minimum.
    @raise Verify.Gate.Rejected at the first failing check. *)

val gated :
  ?backend:Machine.Backend.t
  -> label:string
  -> block_size:int
  -> Ptx.Kernel.t
  -> (unit -> Regalloc.Allocator.t)
  -> Regalloc.Allocator.t
(** [gated ~backend ~label ~block_size kernel allocation] runs the
    stages of {!allocate} around [allocation ()], which must allocate
    [kernel] under [backend] (default [Ptx]): pre-alloc before it,
    post-alloc and post-lower after it. {!allocate} is [gated] around
    one allocator call; {!Engine.allocate} also gates the allocation
    {!Resource.analyze_and_finish} kept, so an allocation the engine
    hands out passes the same checks however it was made. *)

val stages :
  ?strategy:Regalloc.Allocator.strategy
  -> ?shared_spare:int
  -> ?regs:int
  -> Workloads.App.t
  -> Ptx.Kernel.t * Ptx.Kernel.t * (Regalloc.Allocator.t, string) result
(** The app's kernel at the three compiler stages the report sweeps
    check: pre-opt (the kernel as built), post-opt (after
    {!Ptxopt.Pipeline.run}) and the {!allocate}d pre-opt kernel under
    the PTX backend at [regs] (default: the app's default limit).
    [Error msg] carries the allocator's [Failure] message. *)
