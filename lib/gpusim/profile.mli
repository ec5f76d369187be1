(** Per-pc dynamic counters for cross-validating the static advisor.

    Records the launch with {!Emulator.run} — the same trace {!Sm}
    replays — and folds over every warp's recorded pcs, active masks
    and lane addresses, counting at every flat instruction index of
    the kernel's {!Cfg.Flow}:

    - memory accesses: execution count, the maximum number of distinct
      L1-line segments a single warp access touched (global and local
      spaces, post local-interleave), and the maximum shared-memory
      bank-conflict degree — both counted by {!Coalescer} on the
      recorded lanes, as the timing model counts them;
    - conditional branches: execution count and how many executions
      split the warp, i.e. were followed by an instruction the warp
      issued under a different active mask.

    The static advisor ({!Verify.Advisor}) must cover every event
    recorded here with a "may" prediction at the same pc, and no
    dynamic maximum may exceed a static bound — the differential
    honesty check run by [crat lint --validate]. *)

type mem_stat =
  { mutable m_execs : int
  ; mutable max_segments : int  (** 0 until a global/local access fires *)
  ; mutable max_bank_degree : int  (** 0 until a shared access fires *)
  ; m_space : Ptx.Types.space
  }

type branch_stat =
  { mutable b_execs : int
  ; mutable b_divergent : int  (** executions where the warp split *)
  }

type t

val run : ?line:int -> ?banks:int -> Launch.t -> t
(** Record the launch through {!Emulator.run} (which leaves the
    launch's memory alone) and collect the counters. Geometry defaults
    match {!Config.fermi}. *)

val mems : t -> (int * mem_stat) list
(** Per-pc memory counters, ascending by pc. *)

val branches : t -> (int * branch_stat) list
