(** Drivers that regenerate every table and figure of the paper's
    evaluation (Section 7). Each returns typed rows and has a printer
    that emits the same series the paper plots; `bench/main.exe` calls
    these, and EXPERIMENTS.md records paper-vs-measured.

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

type fig1_row =
  { abbr : string
  ; opt_over_max : float  (** OptTLP speedup over MaxTLP *)
  ; util_max : float
  ; util_opt : float
  }

val fig1 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> fig1_row list
val pp_fig1 : Format.formatter -> fig1_row list -> unit

type fig2_point =
  { reg2 : int
  ; tlp2 : int
  ; speedup_vs_max : float
  }

val fig2 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> fig2_point list
(** The (reg, TLP) design-space surface (stair registers x feasible
    TLPs), speedups normalised to MaxTLP. *)

val pp_fig2 : Format.formatter -> fig2_point list -> unit

type fig3_row =
  { label3 : string
  ; reg3 : int
  ; tlp3 : int
  ; perf_vs_max : float
  ; l1_hit : float
  ; mem_stall : float
  ; reg_util : float
  }

val fig3 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> fig3_row list
(** MaxTLP / OptTLP / OptTLP+Reg / CRAT for one app (default: CFD). *)

val pp_fig3 : Format.formatter -> fig3_row list -> unit

type fig5_row =
  { abbr : string
  ; hit_max : float
  ; hit_opt : float
  ; stall_max : float
  ; stall_opt : float
  }

val fig5 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> fig5_row list
val pp_fig5 : Format.formatter -> fig5_row list -> unit

type fig6_row =
  { reg6 : int
  ; tlp6 : int
  ; instr_count : int  (** static instructions after allocation *)
  }

val fig6 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> fig6_row list
val pp_fig6 : Format.formatter -> fig6_row list -> unit

type fig7_row =
  { abbr : string
  ; reg_util7 : float
  ; shm_util7 : float
  }

val fig7 : Gpusim.Config.t -> Workloads.App.t list -> fig7_row list
val pp_fig7 : Format.formatter -> fig7_row list -> unit

type fig8_row =
  { label8 : string
  ; speedup8 : float  (** vs the 48-register build *)
  }

val fig8 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> fig8_row list
(** FDTD case study: register limit sweep plus the choice of which
    sub-stack to host in shared memory (best-gain vs worst-gain). *)

val pp_fig8 : Format.formatter -> fig8_row list -> unit

(** {2 Framework internals (Sections 4-5)} *)

val fig11 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> Design_space.point list * Design_space.point list
(** (full staircase, pruned candidates). *)

val pp_fig11 :
  Format.formatter -> Design_space.point list * Design_space.point list -> unit

type fig12_row =
  { reg12 : int
  ; bytes_reference : int  (** linear-scan allocator *)
  ; bytes_crat : int  (** Chaitin-Briggs allocator *)
  }

val fig12 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> fig12_row list
val pp_fig12 : Format.formatter -> fig12_row list -> unit

(** {2 Evaluation (Section 7)} *)

type fig13_row =
  { abbr : string
  ; s_max : float
  ; s_crat_local : float
  ; s_crat : float  (** all normalised to OptTLP *)
  }

(** The headline sweep; [~backend:Machine] re-runs it on the machine
    ISA with split register files. *)
val fig13 :
  ?backend:Machine.Backend.t
  -> Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t list
  -> fig13_row list * comparison list
val pp_fig13 : Format.formatter -> fig13_row list -> unit

type fig14_row =
  { abbr : string
  ; tlp_max : int
  ; tlp_crat : int
  }

val fig14 : comparison list -> fig14_row list
val pp_fig14 : Format.formatter -> fig14_row list -> unit

type fig15_row =
  { abbr : string
  ; util_opt : float
  ; util_crat : float
  }

val fig15 : Gpusim.Config.t -> comparison list -> fig15_row list
val pp_fig15 : Format.formatter -> fig15_row list -> unit

type fig16_row =
  { abbr : string
  ; local_ratio : float
      (** CRAT local-memory accesses / CRAT-local local-memory accesses *)
  }

val fig16 : comparison list -> fig16_row list
val pp_fig16 : Format.formatter -> fig16_row list -> unit

type fig18_row =
  { abbr : string
  ; profile_input : string
  ; eval_input : string
  ; speedup : float
  }

val fig18 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> fig18_row list
val pp_fig18 : Format.formatter -> fig18_row list -> unit

type fig20_row =
  { abbr : string
  ; s_profile : float
  ; s_static : float
  ; opt_profiled : int
  ; opt_static : int
  }

val fig20 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> fig20_row list
val pp_fig20 : Format.formatter -> fig20_row list -> unit

type energy_row =
  { abbr : string
  ; ratio : float  (** CRAT energy / OptTLP energy *)
  }

val energy : comparison list -> energy_row list
val pp_energy : Format.formatter -> energy_row list -> unit

type overhead_row =
  { abbr : string
  ; profiling_runs : int
  ; profiling_seconds : float  (** engine store bypassed: the real price *)
  ; static_seconds : float  (** median over repeated calls *)
  }

val overhead : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> overhead_row list
val pp_overhead : Format.formatter -> overhead_row list -> unit

(** {2 Tables} *)

type tab1_row =
  { abbr : string
  ; resource : Resource.t
  ; opt_profiled : int
  ; opt_static : int
  }

val tab1 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> tab1_row list
val pp_tab1 : Format.formatter -> tab1_row list -> unit

(** {2 Ablations} — design choices called out in DESIGN.md *)

type abl_sched_row =
  { abbr : string
  ; gto_cycles : int
  ; lrr_cycles : int
  }

val ablation_scheduler : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> abl_sched_row list
(** Greedy-then-oldest vs loose-round-robin warp scheduling at each
    app's OptTLP. *)

val pp_ablation_scheduler : Format.formatter -> abl_sched_row list -> unit

type abl_chunk_row =
  { chunk : int
  ; shm_insts : int  (** static spill accesses hosted in shared memory *)
  ; local_insts : int
  ; cycles : int
  }

val ablation_chunk : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> reg:int -> abl_chunk_row list
(** Algorithm 1 sub-stack granularity: whole-type stacks (the paper) vs
    finer chunks (our extension of the paper's "alternative split
    methods" future work). *)

val pp_ablation_chunk : Format.formatter -> abl_chunk_row list -> unit

type abl_type_row =
  { abbr : string
  ; colors_strict : int
  ; colors_loose : int
  ; waste_events : int
  }

val ablation_type_strict : Workloads.App.t list -> abl_type_row list
(** PTX type-affinity in colouring (paper Section 5.2): registers used
    with and without the same-type preference. *)

val pp_ablation_type_strict : Format.formatter -> abl_type_row list -> unit

type abl_alloc_row =
  { variant : string
  ; instrs : int  (** static instruction count of the build *)
  ; local_insts : int
  ; remat_insts : int
  ; cycles : int
  }

val ablation_allocator : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> reg:int -> abl_alloc_row list
(** The allocator-quality extension over the paper, rematerialisation,
    against the paper's allocator at a spill-inducing register limit. *)

val pp_ablation_allocator : Format.formatter -> abl_alloc_row list -> unit

type gpu_scale_row =
  { sms : int
  ; cycles : int
  ; ipc : float  (** aggregate warp instructions per cycle *)
  }

val gpu_scaling : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> tlp:int -> gpu_scale_row list
(** Whole-GPU runs with a growing SM count sharing one L2/DRAM: shows
    bandwidth, not SM count, bounding memory-bound kernels. *)

val pp_gpu_scaling : Format.formatter -> gpu_scale_row list -> unit

type bypass_row =
  { label_b : string
  ; tlp_b : int
  ; cycles_b : int
  ; l1_hit_b : float
  }

val extension_bypass : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> bypass_row list
(** CRAT composed with static L1 bypassing for global traffic (the
    paper's related-work suggestion): MaxTLP, MaxTLP+bypass, CRAT and
    CRAT+bypass. Bypassing frees the whole L1 for spill traffic. *)

val pp_extension_bypass : Format.formatter -> bypass_row list -> unit

type dyn_row =
  { abbr : string
  ; max_cycles : int
  ; dyn_cycles : int
  ; opt_cycles : int
  ; crat_cycles : int
  }

val dynamic_tlp : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> dyn_row list
(** The paper's OptTLP baseline is the offline-profiled optimum of
    block-level throttling (Kayiran et al.); this runs the *online*
    DynCTA-style controller for comparison: MaxTLP vs dynamic throttling
    vs OptTLP vs CRAT. *)

val pp_dynamic_tlp : Format.formatter -> dyn_row list -> unit
