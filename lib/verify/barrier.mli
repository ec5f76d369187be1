(** Checker 3: barrier divergence. [bar.sync] waits for every thread of
    the block, so executing one under divergent control flow (a block
    {!Absint.Analysis.divergent_block} claims may run with a partial
    warp) deadlocks the block — reported as V301. [ret] under divergent
    control flow (unsupported by the reference interpreter's
    reconvergence stack) is warned as V302. *)

val check : Absint.Analysis.t -> Diagnostic.t list
