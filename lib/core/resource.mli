(** Resource-usage analysis (paper Section 4.1, Table 1).

    Collects, per kernel: [MaxReg]/[MinReg] (register usage range),
    [BlockSize]/[MaxTLP] (thread-level parallelism), and [ShmSize]
    (shared memory per block). [OptTLP] is estimated separately
    ({!Opttlp}) by profiling or static analysis. *)

type t =
  { max_reg : int
      (** registers per thread that hold every variable with no spills —
          found by data-flow analysis (MaxLive) refined by a colouring
          probe, since graph colouring can need slightly more than the
          clique bound *)
  ; min_reg : int  (** NumRegister / MaxThreads; fewer never helps TLP *)
  ; block_size : int
  ; shm_size : int  (** bytes of shared memory per block (app's own) *)
  ; max_tlp : int
      (** occupancy at the default register allocation — the TLP of the
          MaxTLP baseline *)
  ; default_regs : int
  ; max_live_units : int  (** raw MaxLive in 32-bit units *)
  ; sregs_per_warp : int
      (** scalar-file units per warp the machine backend's allocation
          occupies; 0 under the PTX backend *)
  }

val analyze : ?backend:Machine.Backend.t -> Gpusim.Config.t -> Workloads.App.t -> t
(** [backend] (default [Ptx]) selects the register-file model:
    [Machine] probes [MaxReg] with the proven-uniform registers coloured
    against the per-warp scalar file ({!Machine.Scalarize}), which can
    lower [MaxReg] below MaxLive — the backend's TLP headroom — and
    reports the resulting scalar footprint in [sregs_per_warp]. *)

val analyze_and_finish :
  ?backend:Machine.Backend.t
  -> Gpusim.Config.t
  -> Workloads.App.t
  -> t * Regalloc.Allocator.t option
(** {!analyze}, plus the allocation at [max_reg] when the probe
    confirmed [max_reg] spill-free: the probe's last colouring, ended by
    {!Regalloc.Allocator.finish} at the app's block size. It equals
    [Compile.allocate ~backend ~block_size ~reg_limit:max_reg] of the
    app's kernel at any [shared_spare] (round 1 places no spill), but
    no gate stage has run on it. [None] when [max_reg] is the cap and
    the cap spills. {!Engine.resource} keeps it for the engine's next
    allocation at [max_reg]. *)

val usage : ?sregs_per_warp:int -> Workloads.App.t -> regs:int -> Gpusim.Occupancy.usage
(** The occupancy facts of Section 4.1 for [app] at [regs] registers
    per thread: its block size, its declared shared bytes per block and
    [sregs_per_warp] (default 0, the PTX backend's). Nothing is
    analysed, so under the PTX backend [Occupancy.max_tlp cfg (usage app
    ~regs)] is the MaxTLP at [regs] without {!analyze}'s liveness and
    colouring probe. The machine backend still needs {!analyze}: its
    [sregs_per_warp] is the scalar footprint the colouring probe
    finds. *)

val usage_at : t -> regs:int -> Gpusim.Occupancy.usage
(** {!usage} with the analysis's [sregs_per_warp], for a candidate
    register count. *)

val pp : Format.formatter -> t -> unit
