(** Top-level register allocator: the paper's "register allocation"
    component (Figure 9). Given a per-thread register limit, it performs
    live-range analysis, builds the interference graph, colours it
    (Chaitin-Briggs by default), inserts spill code for the overflow, and
    — when a spare-shared-memory budget is supplied — runs the Algorithm 1
    optimization to host profitable sub-stacks in shared memory.

    Spilling follows the classic iterate-to-fixpoint structure: spill code
    introduces short-lived temporaries, so the original kernel is re-spilled
    with the cumulative spill set and re-coloured until colouring
    succeeds. *)

type strategy =
  | Chaitin_briggs
  | Linear_scan

(** Shared-memory spilling policy. [`Spare bytes] gives the spare shared
    memory per thread block that spilling may consume without lowering
    the TLP (computed by the CRAT driver from [ShmSize], TLP and the
    hardware shared-memory size). *)
type shared_policy =
  [ `Off
  | `Spare of int
  ]

type t =
  { kernel : Ptx.Kernel.t
      (** allocated kernel: physical registers, spill code inserted *)
  ; original : Ptx.Kernel.t
  ; virtual_kernel : Ptx.Kernel.t
      (** the post-spill kernel, still on virtual registers — the input
          of the final colouring, kept so an independent auditor
          (lib/verify) can re-derive live ranges and re-check the
          assignment *)
  ; assignment : Ptx.Reg.t Ptx.Reg.Map.t
      (** virtual register -> physical register, covering every register
          of [virtual_kernel]; [kernel] is exactly [virtual_kernel] under
          this substitution *)
  ; block_size : int  (** the launch block size the spill layout assumed *)
  ; reg_limit : int  (** the requested per-thread limit, in 32-bit units *)
  ; units_used : int
      (** {b vector-file} 32-bit register units actually occupied per
          thread *)
  ; pred_used : int
  ; scalar_limit : int
      (** per-warp scalar-file budget in units; 0 = the scalar file was
          disabled (PTX backend), every value lives in the vector file *)
  ; scalar_units_used : int
      (** scalar-file units occupied per warp *)
  ; scalarized : int
      (** virtual registers placed in the scalar file *)
  ; spilled : Spill.placement list
  ; stats : Spill.stats  (** static inserted-instruction counts *)
  ; weighted_local : float
      (** loop-weighted estimate of dynamic local-memory spill accesses *)
  ; weighted_shared : float
  ; spill_local_bytes : int  (** per-thread local spill stack *)
  ; spill_shared_bytes_per_block : int
  ; rounds : int  (** colouring rounds until fixpoint *)
  }

val scalar_color_base : t -> int
(** First physical id of the scalar file (= [reg_limit]): scalar-file
    colours are offset past the vector budget so the two files never
    share an id within a class. *)

val is_scalar_phys : t -> Ptx.Reg.t -> bool
(** Is this {e physical} (allocated) register in the scalar file? *)

val allocate :
  ?strategy:strategy
  -> ?shared_policy:shared_policy
  -> ?spill_preference:[ `Cheap_first | `Expensive_first ]
  -> ?shared_chunk:int
  -> ?remat:bool
  -> ?scalar:(Ptx.Reg.t -> bool)
  -> ?scalar_limit:int
  -> block_size:int
  -> reg_limit:int
  -> Ptx.Kernel.t
  -> t
(** [spill_preference] selects which variables the colouring sacrifices
    first: [`Cheap_first] (default) spills low-access-frequency, long
    live ranges — the paper's var2; [`Expensive_first] inverts the
    heuristic (the paper's Figure 8 var1 counter-example).
    [remat] (default false) rematerialises single-def constant/built-in
    moves instead of spilling them, an extension over the paper's
    allocator measured by the [abl-alloc] ablation.
    Spill costs are {!Cfg.Defuse}'s loop-depth weights; Algorithm 1's
    gain of a sub-stack is its static spill-access count.
    [scalar] with [scalar_limit > 0] (units, at least 8) enables the
    split register-class interface of the machine backend: virtual
    registers the predicate classifies (e.g. proven warp-uniform by
    [Machine.Scalarize]) are coloured against the per-warp scalar
    budget instead of the per-thread vector budget, with their physical
    ids offset by [reg_limit] (see {!scalar_color_base}). Predicates
    and registers introduced by spilling always stay vector-side;
    scalar-partition overflow spills like any other register.
    @raise Failure when [reg_limit] is below the feasible minimum (a few
    registers are needed to execute any instruction plus the spill
    infrastructure). *)

(** {2 Spill-free probe}

    Each colouring round of {!allocate} has two steps. The first builds
    the round kernel's interference graph and spill costs and colours
    the predicate and scalar-file classes; none of that depends on
    [reg_limit]. The second colours the vector classes against
    [reg_limit]. Whether a limit is spill-free is decided by round 1
    alone, so a probe runs the first step of round 1 once and the second
    step once per queried limit. It never builds spill code. Round 1 of
    {!allocate} is itself a probe (under its strategy and spill
    preference) ended by {!finish}, so the two cannot disagree. *)

type probe

val probe :
  ?scalar:(Ptx.Reg.t -> bool)
  -> ?scalar_limit:int
  -> Cfg.Flow.t
  -> Cfg.Liveness.t
  -> probe
(** [probe ?scalar ?scalar_limit flow live] prepares round 1 of
    allocating [flow.kernel], where [flow = Cfg.Flow.of_kernel kernel]
    and [live = Cfg.Liveness.compute flow]. [scalar] and [scalar_limit]
    are as for {!allocate}. *)

val spill_free : probe -> reg_limit:int -> bool
(** [spill_free (probe ~scalar ~scalar_limit flow live) ~reg_limit]
    equals [(allocate ~scalar ~scalar_limit ~block_size ~reg_limit
    flow.kernel).spilled = []] with every other option at its default,
    for any [block_size].
    @raise Failure exactly when round 1 of that allocation does (the
    limit is below the feasible minimum). When round 1 spills, the
    probe answers [false] without running the later rounds, even where
    {!allocate} would go on to raise [Failure] in one of them. *)

val finish : probe -> block_size:int -> reg_limit:int -> t option
(** [finish (probe ~scalar ~scalar_limit flow live) ~block_size
    ~reg_limit] ends round 1 at [reg_limit]: [Some a] exactly when
    {!spill_free} holds there, and then [a] equals [allocate ~scalar
    ~scalar_limit ~block_size ~reg_limit flow.kernel] with every other
    option at its default ([rounds = 1], no spill code, [virtual_kernel]
    physically the input). A spill-free allocation is the same value
    under any [shared_policy], since Algorithm 1 has nothing to place.
    [None] when round 1 spills: the later rounds need {!allocate}.
    @raise Failure as {!spill_free} does. *)

val scalar_units : probe -> int
(** Round 1's scalar-file units per warp: [scalar_units_used] of the
    allocation at any limit where {!spill_free} holds. *)

val spill_bytes : t -> int
(** Total spill traffic footprint in bytes (sum over placements of the
    spilled width times its static access count) — the Figure 12 metric. *)
