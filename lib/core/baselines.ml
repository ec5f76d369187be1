type evaluated =
  { label : string
  ; reg : int
  ; tlp : int
  ; stats : Gpusim.Stats.t
  ; alloc : Regalloc.Allocator.t
  ; input : Workloads.App.input
  }

let cycles e = e.stats.Gpusim.Stats.cycles

let speedup_over ~baseline e =
  float_of_int (cycles baseline) /. float_of_int (cycles e)

let default_build ?backend engine (app : Workloads.App.t) =
  Engine.allocate engine ?backend app
    ~reg_limit:app.Workloads.App.default_regs

let resolve_input app = function
  | Some i -> i
  | None -> Workloads.App.default_input app

let max_tlp ?backend engine cfg (app : Workloads.App.t) ?input () =
  let input = resolve_input app input in
  let alloc = default_build ?backend engine app in
  let r = Engine.resource engine ?backend cfg app in
  let tlp = max 1 r.Resource.max_tlp in
  let launch =
    Workloads.App.launch app ~kernel:alloc.Regalloc.Allocator.kernel ~input ()
  in
  let stats = Engine.simulate engine launch cfg ~tlp in
  { label = "MaxTLP"
  ; reg = app.Workloads.App.default_regs
  ; tlp
  ; stats
  ; alloc
  ; input
  }

let opt_tlp ?backend engine cfg (app : Workloads.App.t) ?input () =
  let input = resolve_input app input in
  let alloc = default_build ?backend engine app in
  let r = Engine.resource engine ?backend cfg app in
  let pr =
    Opttlp.profile engine cfg app ~input
      ~kernel:alloc.Regalloc.Allocator.kernel
      ~max_tlp:(max 1 r.Resource.max_tlp) ()
  in
  let tlp = pr.Opttlp.opt_tlp in
  let launch =
    Workloads.App.launch app ~kernel:alloc.Regalloc.Allocator.kernel ~input ()
  in
  let stats = Engine.simulate engine launch cfg ~tlp in
  { label = "OptTLP"
  ; reg = app.Workloads.App.default_regs
  ; tlp
  ; stats
  ; alloc
  ; input
  }

let crat ?mode ?backend ?shared_spilling ?profile_input engine cfg
    (app : Workloads.App.t) ?input () =
  let input = resolve_input app input in
  let plan =
    Optimizer.plan ?mode ?backend ?shared_spilling ?profile_input engine cfg app
  in
  let c = plan.Optimizer.chosen in
  let launch =
    Workloads.App.launch app ~kernel:c.Optimizer.alloc.Regalloc.Allocator.kernel
      ~input ()
  in
  let stats =
    Engine.simulate engine launch cfg ~tlp:c.Optimizer.point.Design_space.tlp
  in
  let label =
    match (plan.Optimizer.mode, plan.Optimizer.shared_spilling) with
    | `Profile, true -> "CRAT"
    | `Profile, false -> "CRAT-local"
    | `Static, true -> "CRAT-static"
    | `Static, false -> "CRAT-static-local"
  in
  ( { label
    ; reg = c.Optimizer.point.Design_space.reg
    ; tlp = c.Optimizer.point.Design_space.tlp
    ; stats
    ; alloc = c.Optimizer.alloc
    ; input
    }
  , plan )

let register_utilization cfg (app : Workloads.App.t) e =
  Gpusim.Occupancy.register_utilization cfg
    (Resource.usage ~sregs_per_warp:e.alloc.Regalloc.Allocator.scalar_units_used app
       ~regs:e.alloc.Regalloc.Allocator.units_used)
    ~tlp:e.tlp
