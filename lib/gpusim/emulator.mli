(** Functional emulator: executes a launch on {!Interp} with no timing
    model, under {!Simt.run_block}'s barrier-quantum order. It is the
    only trace recorder — {!Sm} and {!Gpu} time the trace it records —
    and the oracle that register allocation preserves semantics
    (original and allocated kernels must leave identical memory). *)

val run :
  ?sanitize:Sancheck.runtime
  -> ?record:Replay.t
  -> ?max_warp_instrs:int
  -> Launch.t
  -> unit
(** Execute all blocks in id order, mutating the launch's global memory
    in place. [sanitize] arms the hybrid sanitizer in the underlying
    {!Interp}; its counters belong to the caller. [record] captures
    each issued warp instruction's (pc, active mask, lane addresses)
    into an empty trace created for this launch (with [sanitize] unset:
    a suppressed lane would leave the trace short of an address).
    @raise Simt.Over_budget once more than [max_warp_instrs] (default:
    unbounded) warp instructions have issued, leaving memory part-way
    and [record] holding a truncated trace, which no replay can finish
    within a cycle budget that issues at most [max_warp_instrs]
    instructions.
    @raise Failure on barrier deadlock or divergent return. *)

val run_to_memory : Launch.t -> Memory.t
(** Like {!run} but on a copy of the launch's memory; returns the
    resulting memory. *)
