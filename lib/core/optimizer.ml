type mode =
  [ `Profile
  | `Static
  ]

type candidate =
  { point : Design_space.point
  ; alloc : Regalloc.Allocator.t
  ; tpsc : float
  ; spare_shm : int
  }

type plan =
  { app : Workloads.App.t
  ; resource : Resource.t
  ; opt_tlp : int
  ; mode : mode
  ; backend : Machine.Backend.t
  ; shared_spilling : bool
  ; candidates : candidate list
  ; chosen : candidate
  }

let plan ?(mode = `Profile) ?(backend = Machine.Backend.Ptx)
    ?(shared_spilling = true) ?profile_input engine cfg app =
  let resource = Engine.resource engine ~backend cfg app in
  let max_tlp = resource.Resource.max_tlp in
  let opt_tlp =
    match mode with
    | `Profile ->
      (Opttlp.profile engine cfg app ?input:profile_input ~max_tlp ())
        .Opttlp.opt_tlp
    | `Static -> Opttlp.estimate_static cfg app ?input:profile_input ~max_tlp ()
  in
  let points = Design_space.prune cfg resource ~opt_tlp in
  let costs = Micro.measure cfg in
  (* candidate allocations are independent: fan them across domains *)
  let candidates =
    Engine.map engine
      (fun (p : Design_space.point) ->
         let spare =
           if shared_spilling then
             Gpusim.Occupancy.spare_shared_bytes cfg
               (Resource.usage_at resource ~regs:p.Design_space.reg)
               ~tlp:p.Design_space.tlp
           else 0
         in
         let alloc =
           Engine.allocate engine app ~backend ~reg_limit:p.Design_space.reg
             ~shared_spare:spare
         in
         let tpsc =
           Tpsc.tpsc_weighted cfg costs ~block_size:resource.Resource.block_size
             ~tlp:p.Design_space.tlp alloc
         in
         { point = p; alloc; tpsc; spare_shm = spare })
      points
  in
  let chosen =
    match candidates with
    | [] -> invalid_arg (app.Workloads.App.abbr ^ ": empty candidate set")
    | first :: rest ->
      List.fold_left (fun best c -> if c.tpsc < best.tpsc then c else best) first rest
  in
  { app; resource; opt_tlp; mode; backend; shared_spilling; candidates; chosen }

let pp_plan fmt p =
  Format.fprintf fmt "%s: %a; OptTLP=%d (%s)@." p.app.Workloads.App.abbr
    Resource.pp p.resource p.opt_tlp
    (match p.mode with
     | `Profile -> "profiled"
     | `Static -> "static");
  List.iter
    (fun c ->
       Format.fprintf fmt "  %a spare_shm=%dB spills=%d (local %d, shm %d) TPSC=%.3f%s@."
         Design_space.pp_point c.point c.spare_shm
         (List.length c.alloc.Regalloc.Allocator.spilled)
         c.alloc.Regalloc.Allocator.stats.Regalloc.Spill.num_local
         c.alloc.Regalloc.Allocator.stats.Regalloc.Spill.num_shared c.tpsc
         (if c == p.chosen then "  <== chosen" else ""))
    p.candidates
