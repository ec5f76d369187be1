type t =
  { max_reg : int
  ; min_reg : int
  ; block_size : int
  ; shm_size : int
  ; max_tlp : int
  ; default_regs : int
  ; max_live_units : int
  ; sregs_per_warp : int
  }

(* MaxReg: the smallest limit at which allocation inserts no spill code.
   MaxLive is a lower bound; colouring (and the paper's type-sensitivity)
   can need a little more, so probe upward from MaxLive. Under the
   machine backend the scalar partition relieves vector pressure, so
   the probe starts below MaxLive and searches downward first. Every
   limit is coloured at most once, on one round-1 interference graph.
   Also returns whether the answer was confirmed spill-free: it is not
   when the upward walk stopped at [cap] without colouring it. *)
let probe_max_reg probe ~scalar_limit ~max_live ~cap =
  let spill_free lim = Regalloc.Allocator.spill_free probe ~reg_limit:lim in
  let rec up lim =
    if lim >= cap then (min lim cap, false)
    else if spill_free lim then (lim, true)
    else up (lim + 1)
  in
  let rec down lim =
    if lim > 1 && spill_free (lim - 1) then down (lim - 1) else lim
  in
  let lo, confirmed = up max_live in
  if scalar_limit > 0 && (confirmed || spill_free lo) then (down lo, true)
  else (lo, confirmed)

(* The occupancy facts of Section 4.1: registers per thread, block
   size, shared memory per block, and the scalar file per warp that
   only the machine backend fills. *)
let occupancy ~block_size ~shm_size ~sregs_per_warp ~regs =
  { Gpusim.Occupancy.regs_per_thread = regs
  ; sregs_per_warp
  ; block_size
  ; shared_per_block = shm_size
  }

let usage ?(sregs_per_warp = 0) (app : Workloads.App.t) ~regs =
  occupancy ~block_size:app.Workloads.App.block_size
    ~shm_size:(Workloads.App.shared_decl_bytes app) ~sregs_per_warp ~regs

let analysis ~finish ?(backend = Machine.Backend.Ptx) (cfg : Gpusim.Config.t)
    (app : Workloads.App.t) =
  let kernel = Workloads.App.kernel app in
  let block_size = app.Workloads.App.block_size in
  let flow = Cfg.Flow.of_kernel kernel in
  let live = Cfg.Liveness.compute flow in
  let max_live_units = Cfg.Liveness.max_pressure live in
  let cap = cfg.Gpusim.Config.max_regs_per_thread in
  let scalar, scalar_limit = Compile.scalar backend ~block_size kernel in
  let probe = Regalloc.Allocator.probe ~scalar ~scalar_limit flow live in
  let max_reg, spill_free =
    probe_max_reg probe ~scalar_limit ~max_live:(min max_live_units cap) ~cap
  in
  let sregs_per_warp =
    if scalar_limit = 0 then 0
    else if spill_free then Regalloc.Allocator.scalar_units probe
    else
      (* [cap] itself spills: the scalar footprint is the one of the
         allocation that spills its way down to [cap] *)
      (Compile.allocate ~backend ~label:app.Workloads.App.abbr ~block_size
         ~reg_limit:max_reg kernel)
        .Regalloc.Allocator.scalar_units_used
  in
  let usage = usage ~sregs_per_warp app ~regs:app.Workloads.App.default_regs in
  ( { max_reg
    ; min_reg = Gpusim.Config.min_reg cfg
    ; block_size
    ; shm_size = usage.Gpusim.Occupancy.shared_per_block
    ; max_tlp = Gpusim.Occupancy.max_tlp cfg usage
    ; default_regs = app.Workloads.App.default_regs
    ; max_live_units
    ; sregs_per_warp
    }
  , if finish && spill_free then
      Regalloc.Allocator.finish probe ~block_size ~reg_limit:max_reg
    else None )

let analyze ?backend cfg app = fst (analysis ~finish:false ?backend cfg app)
let analyze_and_finish ?backend cfg app = analysis ~finish:true ?backend cfg app

let usage_at t ~regs =
  occupancy ~block_size:t.block_size ~shm_size:t.shm_size
    ~sregs_per_warp:t.sregs_per_warp ~regs

let pp fmt t =
  Format.fprintf fmt
    "MaxReg=%d MinReg=%d BlockSize=%d ShmSize=%dB MaxTLP=%d (default regs=%d)"
    t.max_reg t.min_reg t.block_size t.shm_size t.max_tlp t.default_regs
