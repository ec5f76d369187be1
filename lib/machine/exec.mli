(** Functional executor for lowered machine programs.

    It runs on {!Gpusim.Simt}'s SIMT control — the same reconvergence
    stacks, lane-memory path and barrier-quantum block scheduler as
    the reference interpreter in [test/support] — and supplies only the
    machine ISA's semantics over the machine register files:

    - {b vector} and {b predicate} registers hold one value per lane;
    - {b scalar} registers hold {e one value per warp} — a write
      executes once for the warp, so the executor is only equivalent to
      the per-lane reference semantics when the written value really is
      warp-uniform. Unsound scalarization therefore shows up as a
      memory-level divergence from the reference interpreter, which is
      exactly what the differential test checks.

    The launch's [kernel] field is ignored; the program carries its own
    code. Geometry, parameters and memory come from the launch, so the
    same {!Gpusim.Launch.t} drives both executors. *)

val run : ?max_warp_instrs:int -> Lower.t -> Gpusim.Launch.t -> Gpusim.Memory.t
(** Execute every block to completion on a copy of the launch's memory
    and return that memory — the machine-ISA counterpart of
    {!Gpusim.Emulator.run}; the launch is not written.
    @raise Failure on a divergent [EXIT] or a barrier deadlock, like
    the reference interpreter.
    @raise Gpusim.Simt.Over_budget instead of issuing warp instruction
    [max_warp_instrs + 1] (default: unbounded), {!Gpusim.Simt.budget}'s
    rule. *)
