(** The CRAT pipeline (paper Figure 9): resource analysis → design-space
    pruning → per-candidate register allocation (with the shared-memory
    spilling optimization) → TPSC comparison → chosen solution. *)

type mode =
  [ `Profile  (** OptTLP by exhaustive TLP profiling (CRAT-profile) *)
  | `Static  (** OptTLP by static GTO-mimicking analysis (CRAT-static) *)
  ]

type candidate =
  { point : Design_space.point
  ; alloc : Regalloc.Allocator.t
  ; tpsc : float
  ; spare_shm : int  (** shared bytes per block Algorithm 1 could use *)
  }

type plan =
  { app : Workloads.App.t
  ; resource : Resource.t
  ; opt_tlp : int
  ; mode : mode
  ; backend : Machine.Backend.t
  ; shared_spilling : bool
  ; candidates : candidate list  (** TLP descending *)
  ; chosen : candidate
  }

val plan :
  ?mode:mode
  -> ?backend:Machine.Backend.t
      (** [Machine] (default [Ptx]) runs resource analysis and every
          candidate allocation with the split scalar/vector register
          files — uniform values stop counting against the per-thread
          budget, widening the feasible (reg, TLP) frontier *)
  -> ?shared_spilling:bool
  -> ?profile_input:Workloads.App.input
  -> Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t
  -> plan
(** Defaults: [`Profile] mode with shared spilling enabled — the paper's
    full CRAT. [profile_input] is the input used to determine OptTLP
    (defaults to the app's default input). Candidates are ranked by
    {!Tpsc.tpsc_weighted}, which weights spill accesses by loop depth
    (the paper's static formula is {!Tpsc.tpsc}). Resource analysis,
    allocations and profiling simulations go through [engine]: memoized,
    and fanned across its domains. *)

val pp_plan : Format.formatter -> plan -> unit
