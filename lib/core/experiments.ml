let geomean xs =
  match xs with
  | [] -> 1.
  | _ ->
    let s = List.fold_left (fun acc x -> acc +. log x) 0. xs in
    exp (s /. float_of_int (List.length xs))

type comparison =
  { app : Workloads.App.t
  ; max_tlp : Baselines.evaluated
  ; opt_tlp : Baselines.evaluated
  ; crat_local : Baselines.evaluated
  ; crat : Baselines.evaluated
  ; plan : Optimizer.plan
  }

let compare_app ?backend engine cfg app =
  let max_tlp = Baselines.max_tlp ?backend engine cfg app () in
  let opt_tlp = Baselines.opt_tlp ?backend engine cfg app () in
  let crat_local, _ =
    Baselines.crat ?backend ~shared_spilling:false engine cfg app ()
  in
  let crat, plan = Baselines.crat ?backend engine cfg app () in
  { app; max_tlp; opt_tlp; crat_local; crat; plan }

let speedup_vs_opt c e = Baselines.speedup_over ~baseline:c.opt_tlp e

(* ---------- fig 1 ---------- *)

type fig1_row =
  { abbr : string
  ; opt_over_max : float
  ; util_max : float
  ; util_opt : float
  }

let fig1 engine cfg apps =
  Engine.map engine
    (fun app ->
       let m = Baselines.max_tlp engine cfg app () in
       let o = Baselines.opt_tlp engine cfg app () in
       { abbr = app.Workloads.App.abbr
       ; opt_over_max = Baselines.speedup_over ~baseline:m o
       ; util_max = Baselines.register_utilization cfg app m
       ; util_opt = Baselines.register_utilization cfg app o
       })
    apps

let pp_fig1 fmt rows =
  Format.fprintf fmt "Fig 1: thread throttling vs MaxTLP (perf & register utilization)@.";
  Format.fprintf fmt "%-6s %12s %9s %9s@." "app" "OptTLP/Max" "util(Max)" "util(Opt)";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %12.3f %9.2f %9.2f@." r.abbr r.opt_over_max
         r.util_max r.util_opt)
    rows;
  Format.fprintf fmt "geomean speedup %.3f; mean waste %.1f%%@."
    (geomean (List.map (fun r -> r.opt_over_max) rows))
    (100.
     *. (List.fold_left (fun a r -> a +. (r.util_max -. r.util_opt)) 0. rows
         /. float_of_int (max 1 (List.length rows))))

(* ---------- fig 2 ---------- *)

type fig2_point =
  { reg2 : int
  ; tlp2 : int
  ; speedup_vs_max : float
  }

let fig2 engine cfg app =
  let r = Engine.resource engine cfg app in
  let m = Baselines.max_tlp engine cfg app () in
  let base = float_of_int (Baselines.cycles m) in
  let stairs = Design_space.stairs cfg r in
  let regs = List.sort_uniq compare (List.map (fun p -> p.Design_space.reg) stairs) in
  (* the whole (reg x TLP) surface is one frontier: submit it at once *)
  let points =
    List.concat_map
      (fun reg ->
         let occ = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg) in
         List.init occ (fun i -> { Design_space.reg; tlp = i + 1 }))
      regs
  in
  List.map
    (fun ((p : Design_space.point), (st : Gpusim.Stats.t)) ->
       { reg2 = p.Design_space.reg
       ; tlp2 = p.Design_space.tlp
       ; speedup_vs_max = base /. float_of_int st.Gpusim.Stats.cycles
       })
    (Design_space.evaluate engine cfg app points)

let pp_fig2 fmt points =
  Format.fprintf fmt "Fig 2: design space (speedup vs MaxTLP)@.";
  Format.fprintf fmt "%5s %4s %8s@." "reg" "TLP" "speedup";
  List.iter
    (fun p -> Format.fprintf fmt "%5d %4d %8.3f@." p.reg2 p.tlp2 p.speedup_vs_max)
    points

(* ---------- fig 3 ---------- *)

type fig3_row =
  { label3 : string
  ; reg3 : int
  ; tlp3 : int
  ; perf_vs_max : float
  ; l1_hit : float
  ; mem_stall : float
  ; reg_util : float
  }

let row_of cfg app label (e : Baselines.evaluated) base =
  { label3 = label
  ; reg3 = e.Baselines.reg
  ; tlp3 = e.Baselines.tlp
  ; perf_vs_max = base /. float_of_int (Baselines.cycles e)
  ; l1_hit = Gpusim.Stats.l1_hit_rate e.Baselines.stats
  ; mem_stall = Gpusim.Stats.mem_stall_fraction e.Baselines.stats
  ; reg_util = Baselines.register_utilization cfg app e
  }

let fig3 engine cfg app =
  let c = compare_app engine cfg app in
  let base = float_of_int (Baselines.cycles c.max_tlp) in
  let r = c.plan.Optimizer.resource in
  (* OptTLP+Reg: keep the throttled TLP, raise registers to the stair cap *)
  let opt_reg_row =
    match Design_space.max_reg_at_tlp cfg r ~tlp:c.opt_tlp.Baselines.tlp with
    | None -> []
    | Some reg ->
      let a = Engine.allocate engine app ~reg_limit:reg in
      let input = Workloads.App.default_input app in
      let stats =
        Engine.simulate engine
          (Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel ~input ())
          cfg ~tlp:c.opt_tlp.Baselines.tlp
      in
      let e =
        { Baselines.label = "OptTLP+Reg"
        ; reg
        ; tlp = c.opt_tlp.Baselines.tlp
        ; stats
        ; alloc = a
        ; input
        }
      in
      [ row_of cfg app "OptTLP+Reg" e base ]
  in
  [ row_of cfg app "MaxTLP" c.max_tlp base
  ; row_of cfg app "OptTLP" c.opt_tlp base
  ]
  @ opt_reg_row
  @ [ row_of cfg app "CRAT" c.crat base ]

let pp_fig3 fmt rows =
  Format.fprintf fmt "Fig 3: selected design points@.";
  Format.fprintf fmt "%-11s %5s %4s %8s %7s %7s %7s@." "solution" "reg" "TLP"
    "perf" "L1hit" "stall" "reguse";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-11s %5d %4d %8.3f %7.3f %7.3f %7.2f@." r.label3
         r.reg3 r.tlp3 r.perf_vs_max r.l1_hit r.mem_stall r.reg_util)
    rows

(* ---------- fig 5 ---------- *)

type fig5_row =
  { abbr : string
  ; hit_max : float
  ; hit_opt : float
  ; stall_max : float
  ; stall_opt : float
  }

let fig5 engine cfg apps =
  Engine.map engine
    (fun app ->
       let m = Baselines.max_tlp engine cfg app () in
       let o = Baselines.opt_tlp engine cfg app () in
       { abbr = app.Workloads.App.abbr
       ; hit_max = Gpusim.Stats.l1_hit_rate m.Baselines.stats
       ; hit_opt = Gpusim.Stats.l1_hit_rate o.Baselines.stats
       ; stall_max = Gpusim.Stats.mem_stall_fraction m.Baselines.stats
       ; stall_opt = Gpusim.Stats.mem_stall_fraction o.Baselines.stats
       })
    apps

let pp_fig5 fmt rows =
  Format.fprintf fmt "Fig 5: impact of thread throttling on L1 (hit rate & congestion stalls)@.";
  Format.fprintf fmt "%-6s %9s %9s %10s %10s@." "app" "hit(Max)" "hit(Opt)"
    "stall(Max)" "stall(Opt)";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %9.3f %9.3f %10.3f %10.3f@." r.abbr r.hit_max
         r.hit_opt r.stall_max r.stall_opt)
    rows

(* ---------- fig 6 ---------- *)

type fig6_row =
  { reg6 : int
  ; tlp6 : int
  ; instr_count : int
  }

let reg_sweep (r : Resource.t) cfg =
  let lo = r.Resource.min_reg in
  let hi = min r.Resource.max_reg cfg.Gpusim.Config.max_regs_per_thread in
  let rec collect reg acc =
    if reg > hi then List.rev acc else collect (reg + 3) (reg :: acc)
  in
  collect lo []

let fig6 engine cfg app =
  let r = Engine.resource engine cfg app in
  Engine.map engine
    (fun reg ->
       let a = Engine.allocate engine app ~reg_limit:reg in
       { reg6 = reg
       ; tlp6 = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg)
       ; instr_count = Ptx.Kernel.instr_count a.Regalloc.Allocator.kernel
       })
    (reg_sweep r cfg)

let pp_fig6 fmt rows =
  Format.fprintf fmt "Fig 6: register per-thread vs TLP and instruction count@.";
  Format.fprintf fmt "%5s %4s %8s@." "reg" "TLP" "instrs";
  List.iter
    (fun r -> Format.fprintf fmt "%5d %4d %8d@." r.reg6 r.tlp6 r.instr_count)
    rows

(* ---------- fig 7 ---------- *)

type fig7_row =
  { abbr : string
  ; reg_util7 : float
  ; shm_util7 : float
  }

let fig7 cfg apps =
  List.map
    (fun app ->
       let r = Resource.analyze cfg app in
       let tlp = r.Resource.max_tlp in
       let u = Resource.usage_at r ~regs:r.Resource.default_regs in
       { abbr = app.Workloads.App.abbr
       ; reg_util7 = Gpusim.Occupancy.register_utilization cfg u ~tlp
       ; shm_util7 = Gpusim.Occupancy.shared_utilization cfg u ~tlp
       })
    apps

let pp_fig7 fmt rows =
  Format.fprintf fmt "Fig 7: register vs shared-memory utilization at MaxTLP@.";
  Format.fprintf fmt "%-6s %9s %9s@." "app" "reg" "shared";
  List.iter
    (fun r -> Format.fprintf fmt "%-6s %9.2f %9.2f@." r.abbr r.reg_util7 r.shm_util7)
    rows;
  let avg f = List.fold_left (fun a r -> a +. f r) 0. rows /. float_of_int (max 1 (List.length rows)) in
  Format.fprintf fmt "mean: regs %.1f%%, shared %.1f%%@."
    (100. *. avg (fun r -> r.reg_util7))
    (100. *. avg (fun r -> r.shm_util7))

(* ---------- fig 8 ---------- *)

type fig8_row =
  { label8 : string
  ; speedup8 : float
  }

let fig8 engine cfg app =
  let r = Engine.resource engine cfg app in
  let input = Workloads.App.default_input app in
  let build ?(shared = false) ?(var1 = false) ~label reg =
    let usage = Resource.usage_at r ~regs:reg in
    let tlp = Gpusim.Occupancy.max_tlp cfg usage in
    let shared_spare =
      if shared then Gpusim.Occupancy.spare_shared_bytes cfg usage ~tlp else 0
    in
    let a =
      if var1 then
        (* the inverted spill heuristic is a knob the engine does not carry *)
        Regalloc.Allocator.allocate ~shared_policy:(`Spare shared_spare)
          ~spill_preference:`Expensive_first
          ~block_size:app.Workloads.App.block_size ~reg_limit:reg
          (Workloads.App.kernel app)
      else Engine.allocate engine app ~shared_spare ~reg_limit:reg
    in
    (label, a.Regalloc.Allocator.kernel, tlp)
  in
  let base_reg = min 48 r.Resource.max_reg in
  let builds =
    [ build ~label:(Printf.sprintf "Reg=%d" base_reg) base_reg
    ; build ~label:"Reg=40" 40
    ; build ~label:"Reg=32" 32
    ; build ~shared:true ~var1:true
        ~label:"Reg=32+shm, spill var1 (high-frequency)" 32
    ; build ~shared:true ~label:"Reg=32+shm, spill var2 (Algorithm 1 default)" 32
    ]
  in
  let stats =
    Engine.simulate_batch engine
      (List.map
         (fun (_, kernel, tlp) ->
            (Workloads.App.launch app ~kernel ~input (), cfg, tlp))
         builds)
  in
  let rows =
    List.map2
      (fun (label, _, _) (st : Gpusim.Stats.t) -> (label, st.Gpusim.Stats.cycles))
      builds stats
  in
  match rows with
  | [] -> []
  | (_, base) :: _ ->
    List.map
      (fun (label8, c) -> { label8; speedup8 = float_of_int base /. float_of_int c })
      rows

let pp_fig8 fmt rows =
  Format.fprintf fmt "Fig 8: register limit + shared-memory spill choice (FDTD)@.";
  List.iter
    (fun r -> Format.fprintf fmt "  %-40s %8.3f@." r.label8 r.speedup8)
    rows

(* ---------- fig 11 ---------- *)

let fig11 engine cfg app =
  let r = Engine.resource engine cfg app in
  let pr = Opttlp.profile engine cfg app ~max_tlp:r.Resource.max_tlp () in
  (Design_space.stairs cfg r, Design_space.prune cfg r ~opt_tlp:pr.Opttlp.opt_tlp)

let pp_fig11 fmt (stairs, pruned) =
  Format.fprintf fmt "Fig 11: design-space staircase and pruning@.";
  Format.fprintf fmt "  stairs :";
  List.iter (fun p -> Format.fprintf fmt " %a" Design_space.pp_point p) stairs;
  Format.fprintf fmt "@.  pruned :";
  List.iter (fun p -> Format.fprintf fmt " %a" Design_space.pp_point p) pruned;
  Format.fprintf fmt "@."

(* ---------- fig 12 ---------- *)

type fig12_row =
  { reg12 : int
  ; bytes_reference : int
  ; bytes_crat : int
  }

let fig12 engine cfg app =
  let r = Engine.resource engine cfg app in
  Engine.map engine
    (fun reg ->
       let cb = Engine.allocate engine app ~reg_limit:reg in
       let ls =
         Engine.allocate ~strategy:Regalloc.Allocator.Linear_scan engine app
           ~reg_limit:reg
       in
       { reg12 = reg
       ; bytes_reference = Regalloc.Allocator.spill_bytes ls
       ; bytes_crat = Regalloc.Allocator.spill_bytes cb
       })
    (reg_sweep r cfg)

let pp_fig12 fmt rows =
  Format.fprintf fmt "Fig 12: spill load/store bytes, reference (linear scan) vs CRAT@.";
  Format.fprintf fmt "%5s %10s %10s@." "reg" "reference" "CRAT";
  List.iter
    (fun r -> Format.fprintf fmt "%5d %10d %10d@." r.reg12 r.bytes_reference r.bytes_crat)
    rows

(* ---------- fig 13/14/15/16 ---------- *)

type fig13_row =
  { abbr : string
  ; s_max : float
  ; s_crat_local : float
  ; s_crat : float
  }

let fig13 ?backend engine cfg apps =
  (* apps are independent: one full comparison per domain *)
  let comps = Engine.map engine (compare_app ?backend engine cfg) apps in
  let rows =
    List.map
      (fun c ->
         { abbr = c.app.Workloads.App.abbr
         ; s_max = speedup_vs_opt c c.max_tlp
         ; s_crat_local = speedup_vs_opt c c.crat_local
         ; s_crat = speedup_vs_opt c c.crat
         })
      comps
  in
  (rows, comps)

let pp_fig13 fmt rows =
  Format.fprintf fmt "Fig 13: performance normalised to OptTLP@.";
  Format.fprintf fmt "%-6s %8s %8s %11s %8s@." "app" "MaxTLP" "OptTLP" "CRAT-local" "CRAT";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %8.3f %8.3f %11.3f %8.3f@." r.abbr r.s_max 1.0
         r.s_crat_local r.s_crat)
    rows;
  Format.fprintf fmt "geomean: CRAT-local %.3f, CRAT %.3f (max %.2f)@."
    (geomean (List.map (fun r -> r.s_crat_local) rows))
    (geomean (List.map (fun r -> r.s_crat) rows))
    (List.fold_left (fun a r -> Float.max a r.s_crat) 0. rows)

type fig14_row =
  { abbr : string
  ; tlp_max : int
  ; tlp_crat : int
  }

let fig14 comps =
  List.map
    (fun c ->
       { abbr = c.app.Workloads.App.abbr
       ; tlp_max = c.max_tlp.Baselines.tlp
       ; tlp_crat = c.crat.Baselines.tlp
       })
    comps

let pp_fig14 fmt rows =
  Format.fprintf fmt "Fig 14: selected TLP@.";
  Format.fprintf fmt "%-6s %7s %6s@." "app" "MaxTLP" "CRAT";
  List.iter
    (fun r -> Format.fprintf fmt "%-6s %7d %6d@." r.abbr r.tlp_max r.tlp_crat)
    rows;
  let avg f = List.fold_left (fun a r -> a + f r) 0 rows in
  Format.fprintf fmt "mean: MaxTLP %.1f, CRAT %.1f@."
    (float_of_int (avg (fun r -> r.tlp_max)) /. float_of_int (max 1 (List.length rows)))
    (float_of_int (avg (fun r -> r.tlp_crat)) /. float_of_int (max 1 (List.length rows)))

type fig15_row =
  { abbr : string
  ; util_opt : float
  ; util_crat : float
  }

let fig15 cfg comps =
  List.map
    (fun c ->
       { abbr = c.app.Workloads.App.abbr
       ; util_opt = Baselines.register_utilization cfg c.app c.opt_tlp
       ; util_crat = Baselines.register_utilization cfg c.app c.crat
       })
    comps

let pp_fig15 fmt rows =
  Format.fprintf fmt "Fig 15: register utilization@.";
  Format.fprintf fmt "%-6s %8s %8s@." "app" "OptTLP" "CRAT";
  List.iter
    (fun r -> Format.fprintf fmt "%-6s %8.2f %8.2f@." r.abbr r.util_opt r.util_crat)
    rows

type fig16_row =
  { abbr : string
  ; local_ratio : float
  }

let fig16 comps =
  List.filter_map
    (fun c ->
       let l = Gpusim.Stats.local_accesses c.crat_local.Baselines.stats in
       let f = Gpusim.Stats.local_accesses c.crat.Baselines.stats in
       if l = 0 then None
       else
         Some
           { abbr = c.app.Workloads.App.abbr
           ; local_ratio = float_of_int f /. float_of_int l
           })
    comps

let pp_fig16 fmt rows =
  Format.fprintf fmt "Fig 16: local-memory accesses, CRAT normalised to CRAT-local@.";
  List.iter (fun r -> Format.fprintf fmt "  %-6s %8.3f@." r.abbr r.local_ratio) rows;
  if rows <> [] then
    Format.fprintf fmt "mean reduction %.0f%%@."
      (100.
       *. (1.
           -. List.fold_left (fun a r -> a +. r.local_ratio) 0. rows
              /. float_of_int (List.length rows)))

(* ---------- fig 18 ---------- *)

type fig18_row =
  { abbr : string
  ; profile_input : string
  ; eval_input : string
  ; speedup : float
  }

let fig18 engine cfg apps =
  List.concat
    (Engine.map engine
       (fun (app : Workloads.App.t) ->
          let inputs = app.Workloads.App.inputs in
          List.concat_map
            (fun pi ->
               let _, plan =
                 Baselines.crat ~profile_input:pi engine cfg app ~input:pi ()
               in
               let c = plan.Optimizer.chosen in
               (* the chosen build across every evaluation input: one batch *)
               let stats =
                 Engine.simulate_batch engine
                   (List.map
                      (fun ei ->
                         ( Workloads.App.launch app
                             ~kernel:c.Optimizer.alloc.Regalloc.Allocator.kernel
                             ~input:ei ()
                         , cfg
                         , c.Optimizer.point.Design_space.tlp ))
                      inputs)
               in
               List.map2
                 (fun ei (st : Gpusim.Stats.t) ->
                    let o = Baselines.opt_tlp engine cfg app ~input:ei () in
                    { abbr = app.Workloads.App.abbr
                    ; profile_input = pi.Workloads.App.ilabel
                    ; eval_input = ei.Workloads.App.ilabel
                    ; speedup =
                        float_of_int (Baselines.cycles o)
                        /. float_of_int st.Gpusim.Stats.cycles
                    })
                 inputs stats)
            inputs)
       apps)

let pp_fig18 fmt rows =
  Format.fprintf fmt "Fig 18: input sensitivity (CRAT/OptTLP; profile input x eval input)@.";
  Format.fprintf fmt "%-6s %-10s %-10s %8s@." "app" "profiled" "evaluated" "speedup";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %-10s %-10s %8.3f@." r.abbr r.profile_input
         r.eval_input r.speedup)
    rows

(* ---------- fig 20 ---------- *)

type fig20_row =
  { abbr : string
  ; s_profile : float
  ; s_static : float
  ; opt_profiled : int
  ; opt_static : int
  }

let fig20 engine cfg apps =
  Engine.map engine
    (fun app ->
       let o = Baselines.opt_tlp engine cfg app () in
       let cp, plan_p = Baselines.crat engine cfg app () in
       let cs, plan_s = Baselines.crat ~mode:`Static engine cfg app () in
       { abbr = app.Workloads.App.abbr
       ; s_profile = Baselines.speedup_over ~baseline:o cp
       ; s_static = Baselines.speedup_over ~baseline:o cs
       ; opt_profiled = plan_p.Optimizer.opt_tlp
       ; opt_static = plan_s.Optimizer.opt_tlp
       })
    apps

let pp_fig20 fmt rows =
  Format.fprintf fmt "Fig 20: CRAT-profile vs CRAT-static@.";
  Format.fprintf fmt "%-6s %9s %9s %7s %7s@." "app" "profile" "static" "optP" "optS";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %9.3f %9.3f %7d %7d@." r.abbr r.s_profile
         r.s_static r.opt_profiled r.opt_static)
    rows;
  Format.fprintf fmt "geomean: profile %.3f, static %.3f@."
    (geomean (List.map (fun r -> r.s_profile) rows))
    (geomean (List.map (fun r -> r.s_static) rows))

(* ---------- energy ---------- *)

type energy_row =
  { abbr : string
  ; ratio : float
  }

let energy comps =
  List.map
    (fun c ->
       let e stats = Energy.total (Energy.of_stats stats) in
       { abbr = c.app.Workloads.App.abbr
       ; ratio = e c.crat.Baselines.stats /. e c.opt_tlp.Baselines.stats
       })
    comps

let pp_energy fmt rows =
  Format.fprintf fmt "Energy: CRAT normalised to OptTLP@.";
  List.iter (fun r -> Format.fprintf fmt "  %-6s %8.3f@." r.abbr r.ratio) rows;
  Format.fprintf fmt "mean saving %.1f%%@."
    (100.
     *. (1.
         -. List.fold_left (fun a r -> a +. r.ratio) 0. rows
            /. float_of_int (max 1 (List.length rows))))

(* ---------- overhead ---------- *)

type overhead_row =
  { abbr : string
  ; profiling_runs : int
  ; profiling_seconds : float
  ; static_seconds : float
  }

(* a static estimate takes milliseconds, so a single call's time is
   mostly noise *)
let static_calls = 9

let overhead engine cfg apps =
  let cpu_seconds f =
    let t0 = Sys.time () in
    ignore (f ());
    Sys.time () -. t0
  in
  List.map
    (fun app ->
       let r = Engine.resource engine cfg app in
       let a = Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs in
       (* ~cache:false bypasses the store so the profiling cost is
          actually paid here *)
       let profiling_seconds =
         cpu_seconds (fun () ->
           Opttlp.profile engine cfg app ~cache:false
             ~kernel:a.Regalloc.Allocator.kernel ~max_tlp:r.Resource.max_tlp ())
       in
       let static =
         Array.init static_calls (fun _ ->
           cpu_seconds (fun () ->
             Opttlp.estimate_static cfg app ~max_tlp:r.Resource.max_tlp ()))
       in
       Array.sort Float.compare static;
       { abbr = app.Workloads.App.abbr
       ; profiling_runs = r.Resource.max_tlp
       ; profiling_seconds
       ; static_seconds = static.(static_calls / 2)
       })
    apps

let pp_overhead fmt rows =
  Format.fprintf fmt
    "Overhead: OptTLP by profiling vs static analysis (static: median of %d calls)@."
    static_calls;
  Format.fprintf fmt "%-6s %6s %12s %12s@." "app" "runs" "profiling(s)" "static(s)";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %6d %12.2f %12.4f@." r.abbr r.profiling_runs
         r.profiling_seconds r.static_seconds)
    rows

(* ---------- table 1 ---------- *)

type tab1_row =
  { abbr : string
  ; resource : Resource.t
  ; opt_profiled : int
  ; opt_static : int
  }

let tab1 engine cfg apps =
  Engine.map engine
    (fun app ->
       let r = Engine.resource engine cfg app in
       let p = Opttlp.profile engine cfg app ~max_tlp:r.Resource.max_tlp () in
       let s = Opttlp.estimate_static cfg app ~max_tlp:r.Resource.max_tlp () in
       { abbr = app.Workloads.App.abbr
       ; resource = r
       ; opt_profiled = p.Opttlp.opt_tlp
       ; opt_static = s
       })
    apps

let pp_tab1 fmt rows =
  Format.fprintf fmt "Table 1: collected resource-usage parameters@.";
  Format.fprintf fmt "%-6s %7s %7s %6s %8s %7s %8s %8s@." "app" "MaxReg"
    "MinReg" "Block" "ShmSize" "MaxTLP" "OptTLP" "OptTLP*";
  List.iter
    (fun r ->
       let res = r.resource in
       Format.fprintf fmt "%-6s %7d %7d %6d %8d %7d %8d %8d@." r.abbr
         res.Resource.max_reg res.Resource.min_reg res.Resource.block_size
         res.Resource.shm_size res.Resource.max_tlp r.opt_profiled r.opt_static)
    rows;
  Format.fprintf fmt "(OptTLP* = static estimate)@."

(* ---------- ablations ---------- *)

type abl_sched_row =
  { abbr : string
  ; gto_cycles : int
  ; lrr_cycles : int
  }

let ablation_scheduler engine cfg apps =
  Engine.map engine
    (fun (app : Workloads.App.t) ->
       let o = Baselines.opt_tlp engine cfg app () in
       let run scheduler =
         let launch =
           Workloads.App.launch app
             ~kernel:o.Baselines.alloc.Regalloc.Allocator.kernel
             ~tlp:o.Baselines.tlp ~input:o.Baselines.input ()
         in
         (Gpusim.Sm.run ~scheduler cfg launch).Gpusim.Stats.cycles
       in
       { abbr = app.Workloads.App.abbr
       ; gto_cycles = run `Gto
       ; lrr_cycles = run `Lrr
       })
    apps

let pp_ablation_scheduler fmt rows =
  Format.fprintf fmt "Ablation: GTO vs LRR warp scheduling at OptTLP@.";
  Format.fprintf fmt "%-6s %10s %10s %8s@." "app" "GTO" "LRR" "LRR/GTO";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %10d %10d %8.3f@." r.abbr r.gto_cycles
         r.lrr_cycles
         (float_of_int r.lrr_cycles /. float_of_int r.gto_cycles))
    rows

type abl_chunk_row =
  { chunk : int
  ; shm_insts : int
  ; local_insts : int
  ; cycles : int
  }

let ablation_chunk engine cfg (app : Workloads.App.t) ~reg =
  let r = Engine.resource engine cfg app in
  let tlp = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg) in
  let spare =
    Gpusim.Occupancy.spare_shared_bytes cfg (Resource.usage_at r ~regs:reg) ~tlp
  in
  let input = Workloads.App.default_input app in
  let builds =
    List.map
      (fun chunk ->
         ( chunk
         , if chunk = 4 then
             (* Algorithm 1's default chunk: the engine's allocation *)
             Engine.allocate engine app ~shared_spare:spare ~reg_limit:reg
           else
             Regalloc.Allocator.allocate ~shared_policy:(`Spare spare)
               ~shared_chunk:chunk ~block_size:app.Workloads.App.block_size
               ~reg_limit:reg (Workloads.App.kernel app) ))
      [ 1; 4; 1000 ]
  in
  let stats =
    Engine.simulate_batch engine
      (List.map
         (fun (_, a) ->
            ( Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel
                ~input ()
            , cfg
            , tlp ))
         builds)
  in
  List.map2
    (fun (chunk, a) (st : Gpusim.Stats.t) ->
       { chunk
       ; shm_insts = a.Regalloc.Allocator.stats.Regalloc.Spill.num_shared
       ; local_insts = a.Regalloc.Allocator.stats.Regalloc.Spill.num_local
       ; cycles = st.Gpusim.Stats.cycles
       })
    builds stats

let pp_ablation_chunk fmt rows =
  Format.fprintf fmt
    "Ablation: Algorithm 1 sub-stack granularity (1000 = whole-type stacks, the paper)@.";
  Format.fprintf fmt "%6s %10s %10s %10s@." "chunk" "shm-insts" "local" "cycles";
  List.iter
    (fun r ->
       Format.fprintf fmt "%6d %10d %10d %10d@." r.chunk r.shm_insts r.local_insts
         r.cycles)
    rows

type abl_type_row =
  { abbr : string
  ; colors_strict : int
  ; colors_loose : int
  ; waste_events : int
  }

let ablation_type_strict apps =
  List.map
    (fun (app : Workloads.App.t) ->
       let k = Workloads.App.kernel app in
       let flow = Cfg.Flow.of_kernel k in
       let live = Cfg.Liveness.compute flow in
       let graph = Regalloc.Interference.build flow live in
       let du = Cfg.Defuse.compute flow in
       let cost r =
         match Ptx.Reg.Map.find_opt r du with
         | Some s -> s.Cfg.Defuse.weighted
         | None -> 0.
       in
       let color strict =
         Regalloc.Coloring.color ~type_strict:strict ~graph ~cls:Ptx.Types.C32
           ~k:256 ~spill_cost:cost ()
       in
       let s = color true and l = color false in
       { abbr = app.Workloads.App.abbr
       ; colors_strict = s.Regalloc.Coloring.colors_used
       ; colors_loose = l.Regalloc.Coloring.colors_used
       ; waste_events = s.Regalloc.Coloring.type_waste
       })
    apps

let pp_ablation_type_strict fmt rows =
  Format.fprintf fmt
    "Ablation: PTX type-affinity in colouring (paper Sec. 5.2 register waste)@.";
  Format.fprintf fmt "%-6s %8s %8s %8s@." "app" "strict" "loose" "waste";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %8d %8d %8d@." r.abbr r.colors_strict
         r.colors_loose r.waste_events)
    rows

type abl_alloc_row =
  { variant : string
  ; instrs : int
  ; local_insts : int
  ; remat_insts : int
  ; cycles : int
  }

let ablation_allocator engine cfg (app : Workloads.App.t) ~reg =
  let r = Engine.resource engine cfg app in
  let tlp = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg) in
  let input = Workloads.App.default_input app in
  let builds =
    [ ("paper", Engine.allocate engine app ~reg_limit:reg)
    ; ( "+remat"
      , Regalloc.Allocator.allocate ~remat:true
          ~block_size:app.Workloads.App.block_size ~reg_limit:reg
          (Workloads.App.kernel app) )
    ]
  in
  let stats =
    Engine.simulate_batch engine
      (List.map
         (fun (_, a) ->
            ( Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel
                ~input ()
            , cfg
            , tlp ))
         builds)
  in
  List.map2
    (fun (variant, a) (st : Gpusim.Stats.t) ->
       { variant
       ; instrs = Ptx.Kernel.instr_count a.Regalloc.Allocator.kernel
       ; local_insts = a.Regalloc.Allocator.stats.Regalloc.Spill.num_local
       ; remat_insts = a.Regalloc.Allocator.stats.Regalloc.Spill.num_remat
       ; cycles = st.Gpusim.Stats.cycles
       })
    builds stats

let pp_ablation_allocator fmt rows =
  Format.fprintf fmt
    "Ablation: allocator extension (rematerialisation)@.";
  Format.fprintf fmt "%-10s %8s %8s %8s %10s@." "variant" "instrs" "local"
    "remat" "cycles";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-10s %8d %8d %8d %10d@." r.variant r.instrs
         r.local_insts r.remat_insts r.cycles)
    rows

(* ---------- multi-SM scaling ---------- *)

type gpu_scale_row =
  { sms : int
  ; cycles : int
  ; ipc : float
  }

let gpu_scaling engine cfg (app : Workloads.App.t) ~tlp =
  (* the single-SM experiments model one SM's *share* of DRAM bandwidth;
     a whole-GPU run exposes the full pipe, shared between SMs *)
  let cfg =
    { cfg with
      Gpusim.Config.dram_bytes_per_cycle =
        cfg.Gpusim.Config.dram_bytes_per_cycle * cfg.Gpusim.Config.num_sms
    }
  in
  let input = Workloads.App.default_input app in
  let kernel =
    (Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs)
      .Regalloc.Allocator.kernel
  in
  Engine.map engine
    (fun sms ->
       let grid = sms * input.Workloads.App.num_blocks in
       let mem = Workloads.App.memory app { input with Workloads.App.num_blocks = grid } in
       let r =
         Gpusim.Gpu.run ~sms cfg
           (Gpusim.Launch.make ~kernel
              ~block_size:app.Workloads.App.block_size ~num_blocks:grid
              ~tlp_limit:tlp
              ~params:
                (Workloads.App.params app
                   { input with Workloads.App.num_blocks = grid })
              mem)
       in
       { sms; cycles = r.Gpusim.Gpu.total_cycles; ipc = Gpusim.Gpu.aggregate_ipc r })
    [ 1; 2; 4; 8; 15 ]

let pp_gpu_scaling fmt rows =
  Format.fprintf fmt
    "Multi-SM scaling (work per SM held constant; shared L2/DRAM)@.";
  Format.fprintf fmt "%5s %10s %8s@." "SMs" "cycles" "IPC";
  List.iter
    (fun r -> Format.fprintf fmt "%5d %10d %8.2f@." r.sms r.cycles r.ipc)
    rows

(* ---------- cache-bypassing extension ---------- *)

type bypass_row =
  { label_b : string
  ; tlp_b : int
  ; cycles_b : int
  ; l1_hit_b : float
  }

let extension_bypass engine cfg (app : Workloads.App.t) =
  let input = Workloads.App.default_input app in
  let m = Baselines.max_tlp engine cfg app () in
  let c, _plan = Baselines.crat engine cfg app () in
  let run label (e : Baselines.evaluated) bypass =
    (* bypass runs are not memoized: they use the raw simulator hook *)
    let stats =
      if bypass then
        Gpusim.Sm.run ~bypass_global:true cfg
          (Workloads.App.launch app
             ~kernel:e.Baselines.alloc.Regalloc.Allocator.kernel
             ~tlp:e.Baselines.tlp ~input ())
      else e.Baselines.stats
    in
    { label_b = label
    ; tlp_b = e.Baselines.tlp
    ; cycles_b = stats.Gpusim.Stats.cycles
    ; l1_hit_b = Gpusim.Stats.l1_hit_rate stats
    }
  in
  [ run "MaxTLP" m false
  ; run "MaxTLP+bypass" m true
  ; run "CRAT" c false
  ; run "CRAT+bypass" c true
  ]

let pp_extension_bypass fmt rows =
  Format.fprintf fmt
    "Extension: CRAT composed with static L1 bypassing of global traffic@.";
  Format.fprintf fmt "%-15s %4s %10s %7s@." "technique" "TLP" "cycles" "L1hit";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-15s %4d %10d %7.3f@." r.label_b r.tlp_b r.cycles_b
         r.l1_hit_b)
    rows

(* ---------- dynamic throttling baseline ---------- *)

type dyn_row =
  { abbr : string
  ; max_cycles : int
  ; dyn_cycles : int
  ; opt_cycles : int
  ; crat_cycles : int
  }

let dynamic_tlp engine cfg apps =
  Engine.map engine
    (fun (app : Workloads.App.t) ->
       let m = Baselines.max_tlp engine cfg app () in
       let o = Baselines.opt_tlp engine cfg app () in
       let c, _ = Baselines.crat engine cfg app () in
       let dyn =
         Gpusim.Sm.run ~dynamic_tlp:true cfg
           (Workloads.App.launch app
              ~kernel:m.Baselines.alloc.Regalloc.Allocator.kernel
              ~tlp:m.Baselines.tlp ~input:m.Baselines.input ())
       in
       { abbr = app.Workloads.App.abbr
       ; max_cycles = Baselines.cycles m
       ; dyn_cycles = dyn.Gpusim.Stats.cycles
       ; opt_cycles = Baselines.cycles o
       ; crat_cycles = Baselines.cycles c
       })
    apps

let pp_dynamic_tlp fmt rows =
  Format.fprintf fmt
    "Dynamic throttling (DynCTA-style controller) vs offline OptTLP vs CRAT@.";
  Format.fprintf fmt "%-6s %10s %10s %10s %10s@." "app" "MaxTLP" "DynTLP"
    "OptTLP" "CRAT";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-6s %10d %10d %10d %10d@." r.abbr r.max_cycles
         r.dyn_cycles r.opt_cycles r.crat_cycles)
    rows
