(** Drivers that regenerate every table and figure of the paper's
    evaluation (Section 7). Each returns a {!Figure.t} holding the same
    series the paper plots; `bench/main.exe` prints them with
    {!Figure.pp}, FIGURES.txt pins the output, and EXPERIMENTS.md
    records paper-vs-measured.

    All drivers share one {!Engine.t}: each (kernel image, config,
    input, TLP) simulation runs once across the whole set, and
    sweep-shaped drivers submit their frontier as a batch so
    independent jobs fan across the engine's domains. *)

val geomean : float list -> float

(** The four techniques evaluated on one app (Section 7.2). *)
type comparison =
  { app : Workloads.App.t
  ; max_tlp : Baselines.evaluated
  ; opt_tlp : Baselines.evaluated
  ; crat_local : Baselines.evaluated
  ; crat : Baselines.evaluated
  ; plan : Optimizer.plan
  }

(** [compare_app ?backend engine cfg app] evaluates every baseline;
    [backend] (default [Ptx]) selects the register-file model for the
    resource analysis and allocations (see {!Optimizer.plan}). *)
val compare_app :
  ?backend:Machine.Backend.t
  -> Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t
  -> comparison
val speedup_vs_opt : comparison -> Baselines.evaluated -> float

(** {2 Characterisation (Section 1-2)} *)

val fig1 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t
(** OptTLP's speedup over MaxTLP and the register utilization of both. *)

val fig2 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Figure.t
(** The (reg, TLP) design-space surface (stair registers x feasible
    TLPs), speedups normalised to MaxTLP: rows of [Int reg; Int tlp;
    Float speedup]. *)

val fig3 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Figure.t
(** MaxTLP / OptTLP / OptTLP+Reg / CRAT for one app (default: CFD). *)

val fig5 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t

val fig6 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Figure.t
(** Rows of [Int reg; Int tlp; Int instrs]: the static instruction
    count after allocation at each register limit. *)

val fig7 : Gpusim.Config.t -> Workloads.App.t list -> Figure.t
(** Rows of [Text app; Float reg_util; Float shm_util] at MaxTLP. *)

val fig8 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Figure.t
(** FDTD case study: register limit sweep plus the choice of which
    sub-stack to host in shared memory (best-gain vs worst-gain),
    speedups over the 48-register build. *)

(** {2 Framework internals (Sections 4-5)} *)

val fig11 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Figure.t
(** Two rows: the full staircase ["stairs : (reg=R, TLP=T) ..."] and
    the pruned candidates ["pruned : ..."]. *)

val fig12 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Figure.t
(** Rows of [Int reg; Int linear_scan_bytes; Int chaitin_briggs_bytes]. *)

(** {2 Evaluation (Section 7)} *)

(** The headline sweep, normalised to OptTLP, and its comparisons, which
    {!fig14}, {!fig15}, {!fig16} and {!energy} read; [~backend:Machine]
    re-runs it on the machine ISA with split register files. *)
val fig13 :
  ?backend:Machine.Backend.t
  -> Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t list
  -> Figure.t * comparison list

val fig14 : comparison list -> Figure.t
val fig15 : Gpusim.Config.t -> comparison list -> Figure.t

val fig16 : comparison list -> Figure.t
(** CRAT local-memory accesses / CRAT-local local-memory accesses, for
    the apps where CRAT-local has any. *)

val fig17 : ?backend:Machine.Backend.t -> Engine.t -> Workloads.App.t list -> Figure.t
(** Fig 13 on the Kepler-like configuration. *)

val fig18 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t

val fig19 :
  ?backend:Machine.Backend.t -> Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t
(** Fig 13 on the resource-insensitive applications. *)

val fig20 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t

val energy : comparison list -> Figure.t
(** Rows of [Text app; Float ratio]: CRAT energy / OptTLP energy. *)

val overhead : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t
(** Profiling seconds (engine store bypassed: the real price) against
    the median of repeated static estimates. It times this host, so it
    is the one figure that is not deterministic. *)

(** {2 Tables} *)

val tab1 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t
val tab2 : Gpusim.Config.t -> Figure.t
val tab3 : unit -> Figure.t

(** {2 Ablations} — design choices called out in DESIGN.md *)

val ablation_scheduler : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t
(** Greedy-then-oldest vs loose-round-robin warp scheduling at each
    app's OptTLP. *)

val ablation_chunk : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> reg:int -> Figure.t
(** Algorithm 1 sub-stack granularity: whole-type stacks (the paper) vs
    finer chunks (our extension of the paper's "alternative split
    methods" future work). *)

val ablation_type_strict : Workloads.App.t list -> Figure.t
(** PTX type-affinity in colouring (paper Section 5.2): registers used
    with and without the same-type preference. *)

val ablation_allocator : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> reg:int -> Figure.t
(** The allocator-quality extension over the paper, rematerialisation,
    against the paper's allocator at a spill-inducing register limit. *)

val gpu_scaling : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> tlp:int -> Figure.t
(** Whole-GPU runs with a growing SM count sharing one L2/DRAM: shows
    bandwidth, not SM count, bounding memory-bound kernels. *)

val extension_bypass : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Figure.t
(** CRAT composed with static L1 bypassing for global traffic (the
    paper's related-work suggestion): MaxTLP, MaxTLP+bypass, CRAT and
    CRAT+bypass. Bypassing frees the whole L1 for spill traffic. *)

val dynamic_tlp : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> Figure.t
(** The paper's OptTLP baseline is the offline-profiled optimum of
    block-level throttling (Kayiran et al.); this runs the *online*
    DynCTA-style controller for comparison: MaxTLP vs dynamic throttling
    vs OptTLP vs CRAT. *)
