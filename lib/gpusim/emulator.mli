(** Functional emulator: executes a launch on {!Interp} with no timing
    model, under {!Simt.run_block}'s barrier-quantum order. It is the
    only trace recorder — {!Sm} and {!Gpu} time the trace it records —
    and the oracle that register allocation preserves semantics
    (original and allocated kernels must return identical memory). *)

val run :
  ?sanitize:Sancheck.runtime
  -> ?record:Replay.t
  -> ?max_warp_instrs:int
  -> Launch.t
  -> Memory.t
(** Execute all blocks in id order on a copy of the launch's global
    memory, and return that memory; the launch's own memory is never
    written. [sanitize] arms the hybrid sanitizer in the underlying
    {!Interp}; its counters belong to the caller. [record] captures
    each issued warp instruction's (pc, active mask, lane addresses)
    into an empty trace created for this launch (with [sanitize] unset:
    a suppressed lane would leave the trace short of an address).
    @raise Simt.Over_budget instead of issuing warp instruction
    [max_warp_instrs + 1] (default: unbounded), {!Simt.budget}'s rule,
    leaving [record] holding a truncated trace of [max_warp_instrs]
    instructions.
    @raise Failure on barrier deadlock or divergent return. *)
