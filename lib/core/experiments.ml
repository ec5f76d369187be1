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

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* a printer's output, one line per element *)
let lines pp x = String.split_on_char '\n' (Format.asprintf "%a" pp x)

(* ---------- fig 1 ---------- *)

let fig1 engine cfg apps =
  let rows =
    Engine.map engine
      (fun app ->
         let m = Baselines.max_tlp engine cfg app () in
         let o = Baselines.opt_tlp engine cfg app () in
         ( app.Workloads.App.abbr
         , Baselines.speedup_over ~baseline:m o
         , Baselines.register_utilization cfg app m
         , Baselines.register_utilization cfg app o ))
      apps
  in
  Figure.make
    ~title:[ "Fig 1: thread throttling vs MaxTLP (perf & register utilization)" ]
    Figure.[ left "app" 6; right "OptTLP/Max" 12; right "util(Max)" 9; right "util(Opt)" 9 ]
    (List.map
       (fun (abbr, s, um, uo) -> Figure.[ Text abbr; Float (s, 3); Float (um, 2); Float (uo, 2) ])
       rows)
    ~summary:
      [ Printf.sprintf "geomean speedup %.3f; mean waste %.1f%%"
          (geomean (List.map (fun (_, s, _, _) -> s) rows))
          (100. *. mean (List.map (fun (_, _, um, uo) -> um -. uo) rows))
      ]

(* ---------- fig 2 ---------- *)

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
  Figure.make ~title:[ "Fig 2: design space (speedup vs MaxTLP)" ]
    Figure.[ right "reg" 5; right "TLP" 4; right "speedup" 8 ]
    (List.map
       (fun ((p : Design_space.point), (st : Gpusim.Stats.t)) ->
          Figure.
            [ Int p.Design_space.reg
            ; Int p.Design_space.tlp
            ; Float (base /. float_of_int st.Gpusim.Stats.cycles, 3)
            ])
       (Design_space.evaluate engine cfg app points))

(* ---------- fig 3 ---------- *)

let row_of cfg app label (e : Baselines.evaluated) base =
  Figure.
    [ Text label
    ; Int e.Baselines.reg
    ; Int e.Baselines.tlp
    ; Float (base /. float_of_int (Baselines.cycles e), 3)
    ; Float (Gpusim.Stats.l1_hit_rate e.Baselines.stats, 3)
    ; Float (Gpusim.Stats.mem_stall_fraction e.Baselines.stats, 3)
    ; Float (Baselines.register_utilization cfg app e, 2)
    ]

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
  Figure.make ~title:[ "Fig 3: selected design points" ]
    Figure.
      [ left "solution" 11
      ; right "reg" 5
      ; right "TLP" 4
      ; right "perf" 8
      ; right "L1hit" 7
      ; right "stall" 7
      ; right "reguse" 7
      ]
    ([ row_of cfg app "MaxTLP" c.max_tlp base; row_of cfg app "OptTLP" c.opt_tlp base ]
     @ opt_reg_row
     @ [ row_of cfg app "CRAT" c.crat base ])

(* ---------- fig 5 ---------- *)

let fig5 engine cfg apps =
  Figure.make
    ~title:[ "Fig 5: impact of thread throttling on L1 (hit rate & congestion stalls)" ]
    Figure.
      [ left "app" 6
      ; right "hit(Max)" 9
      ; right "hit(Opt)" 9
      ; right "stall(Max)" 10
      ; right "stall(Opt)" 10
      ]
    (Engine.map engine
       (fun app ->
          let m = Baselines.max_tlp engine cfg app () in
          let o = Baselines.opt_tlp engine cfg app () in
          Figure.
            [ Text app.Workloads.App.abbr
            ; Float (Gpusim.Stats.l1_hit_rate m.Baselines.stats, 3)
            ; Float (Gpusim.Stats.l1_hit_rate o.Baselines.stats, 3)
            ; Float (Gpusim.Stats.mem_stall_fraction m.Baselines.stats, 3)
            ; Float (Gpusim.Stats.mem_stall_fraction o.Baselines.stats, 3)
            ])
       apps)

(* ---------- fig 6 ---------- *)

let reg_sweep (r : Resource.t) cfg =
  let lo = r.Resource.min_reg in
  let hi = min r.Resource.max_reg cfg.Gpusim.Config.max_regs_per_thread in
  let rec collect reg acc =
    if reg > hi then List.rev acc else collect (reg + 3) (reg :: acc)
  in
  collect lo []

let fig6 engine cfg app =
  let r = Engine.resource engine cfg app in
  Figure.make ~title:[ "Fig 6: register per-thread vs TLP and instruction count" ]
    Figure.[ right "reg" 5; right "TLP" 4; right "instrs" 8 ]
    (Engine.map engine
       (fun reg ->
          let a = Engine.allocate engine app ~reg_limit:reg in
          Figure.
            [ Int reg
            ; Int (Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg))
            ; Int (Ptx.Kernel.instr_count a.Regalloc.Allocator.kernel)
            ])
       (reg_sweep r cfg))

(* ---------- fig 7 ---------- *)

let fig7 cfg apps =
  let rows =
    List.map
      (fun app ->
         let u = Resource.usage app ~regs:app.Workloads.App.default_regs in
         let tlp = Gpusim.Occupancy.max_tlp cfg u in
         ( app.Workloads.App.abbr
         , Gpusim.Occupancy.register_utilization cfg u ~tlp
         , Gpusim.Occupancy.shared_utilization cfg u ~tlp ))
      apps
  in
  Figure.make ~title:[ "Fig 7: register vs shared-memory utilization at MaxTLP" ]
    Figure.[ left "app" 6; right "reg" 9; right "shared" 9 ]
    (List.map (fun (abbr, reg, shm) -> Figure.[ Text abbr; Float (reg, 2); Float (shm, 2) ]) rows)
    ~summary:
      [ Printf.sprintf "mean: regs %.1f%%, shared %.1f%%"
          (100. *. mean (List.map (fun (_, reg, _) -> reg) rows))
          (100. *. mean (List.map (fun (_, _, shm) -> shm) rows))
      ]

(* ---------- fig 8 ---------- *)

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
  Figure.make ~title:[ "Fig 8: register limit + shared-memory spill choice (FDTD)" ]
    Figure.[ left "" 40; right "" 8 ]
    (match rows with
     | [] -> []
     | (_, base) :: _ ->
       List.map
         (fun (label, c) ->
            Figure.[ Text label; Float (float_of_int base /. float_of_int c, 3) ])
         rows)

(* ---------- fig 11 ---------- *)

let fig11 engine cfg app =
  let r = Engine.resource engine cfg app in
  let pr = Opttlp.profile engine cfg app ~max_tlp:r.Resource.max_tlp () in
  let points label ps =
    [ Figure.Text
        (label ^ String.concat "" (List.map (Format.asprintf " %a" Design_space.pp_point) ps))
    ]
  in
  Figure.make ~title:[ "Fig 11: design-space staircase and pruning" ]
    [ Figure.left "" 0 ]
    [ points "stairs :" (Design_space.stairs cfg r)
    ; points "pruned :" (Design_space.prune cfg r ~opt_tlp:pr.Opttlp.opt_tlp)
    ]

(* ---------- fig 12 ---------- *)

let fig12 engine cfg app =
  let r = Engine.resource engine cfg app in
  Figure.make ~title:[ "Fig 12: spill load/store bytes, reference (linear scan) vs CRAT" ]
    Figure.[ right "reg" 5; right "reference" 10; right "CRAT" 10 ]
    (Engine.map engine
       (fun reg ->
          let cb = Engine.allocate engine app ~reg_limit:reg in
          let ls =
            Engine.allocate ~strategy:Regalloc.Allocator.Linear_scan engine app
              ~reg_limit:reg
          in
          Figure.
            [ Int reg
            ; Int (Regalloc.Allocator.spill_bytes ls)
            ; Int (Regalloc.Allocator.spill_bytes cb)
            ])
       (reg_sweep r cfg))

(* ---------- fig 13/14/15/16/17/19 ---------- *)

(* Fig 13's table over [comps], under the extra [title] lines *)
let speedups ~title comps =
  let rows =
    List.map
      (fun c ->
         ( c.app.Workloads.App.abbr
         , speedup_vs_opt c c.max_tlp
         , speedup_vs_opt c c.crat_local
         , speedup_vs_opt c c.crat ))
      comps
  in
  Figure.make
    ~title:(title @ [ "Fig 13: performance normalised to OptTLP" ])
    Figure.
      [ left "app" 6; right "MaxTLP" 8; right "OptTLP" 8; right "CRAT-local" 11; right "CRAT" 8 ]
    (List.map
       (fun (abbr, s_max, s_local, s_crat) ->
          Figure.
            [ Text abbr; Float (s_max, 3); Float (1.0, 3); Float (s_local, 3); Float (s_crat, 3) ])
       rows)
    ~summary:
      [ Printf.sprintf "geomean: CRAT-local %.3f, CRAT %.3f (max %.2f)"
          (geomean (List.map (fun (_, _, s, _) -> s) rows))
          (geomean (List.map (fun (_, _, _, s) -> s) rows))
          (List.fold_left (fun a (_, _, _, s) -> Float.max a s) 0. rows)
      ]

let comparisons ?backend engine cfg apps =
  (* apps are independent: one full comparison per domain *)
  Engine.map engine (compare_app ?backend engine cfg) apps

let fig13 ?backend engine cfg apps =
  let comps = comparisons ?backend engine cfg apps in
  (speedups ~title:[] comps, comps)

let fig17 ?backend engine apps =
  speedups ~title:[ "Fig 17: Kepler-like architecture" ]
    (comparisons ?backend engine Gpusim.Config.kepler apps)

let fig19 ?backend engine cfg apps =
  speedups ~title:[ "Fig 19: resource-insensitive applications" ]
    (comparisons ?backend engine cfg apps)

let fig14 comps =
  let rows =
    List.map
      (fun c -> (c.app.Workloads.App.abbr, c.max_tlp.Baselines.tlp, c.crat.Baselines.tlp))
      comps
  in
  Figure.make ~title:[ "Fig 14: selected TLP" ]
    Figure.[ left "app" 6; right "MaxTLP" 7; right "CRAT" 6 ]
    (List.map (fun (abbr, m, c) -> Figure.[ Text abbr; Int m; Int c ]) rows)
    ~summary:
      [ Printf.sprintf "mean: MaxTLP %.1f, CRAT %.1f"
          (mean (List.map (fun (_, m, _) -> float_of_int m) rows))
          (mean (List.map (fun (_, _, c) -> float_of_int c) rows))
      ]

let fig15 cfg comps =
  Figure.make ~title:[ "Fig 15: register utilization" ]
    Figure.[ left "app" 6; right "OptTLP" 8; right "CRAT" 8 ]
    (List.map
       (fun c ->
          Figure.
            [ Text c.app.Workloads.App.abbr
            ; Float (Baselines.register_utilization cfg c.app c.opt_tlp, 2)
            ; Float (Baselines.register_utilization cfg c.app c.crat, 2)
            ])
       comps)

let fig16 comps =
  let rows =
    List.filter_map
      (fun c ->
         let l = Gpusim.Stats.local_accesses c.crat_local.Baselines.stats in
         let f = Gpusim.Stats.local_accesses c.crat.Baselines.stats in
         if l = 0 then None
         else Some (c.app.Workloads.App.abbr, float_of_int f /. float_of_int l))
      comps
  in
  Figure.make ~title:[ "Fig 16: local-memory accesses, CRAT normalised to CRAT-local" ]
    Figure.[ left "" 6; right "" 8 ]
    (List.map (fun (abbr, ratio) -> Figure.[ Text abbr; Float (ratio, 3) ]) rows)
    ~summary:
      (if rows = [] then []
       else
         [ Printf.sprintf "mean reduction %.0f%%"
             (100. *. (1. -. mean (List.map snd rows)))
         ])

(* ---------- fig 18 ---------- *)

let fig18 engine cfg apps =
  let rows =
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
                      Figure.
                        [ Text app.Workloads.App.abbr
                        ; Text pi.Workloads.App.ilabel
                        ; Text ei.Workloads.App.ilabel
                        ; Float
                            ( float_of_int (Baselines.cycles o)
                              /. float_of_int st.Gpusim.Stats.cycles
                            , 3 )
                        ])
                   inputs stats)
              inputs)
         apps)
  in
  Figure.make
    ~title:[ "Fig 18: input sensitivity (CRAT/OptTLP; profile input x eval input)" ]
    Figure.[ left "app" 6; left "profiled" 10; left "evaluated" 10; right "speedup" 8 ]
    rows

(* ---------- fig 20 ---------- *)

let fig20 engine cfg apps =
  let rows =
    Engine.map engine
      (fun app ->
         let o = Baselines.opt_tlp engine cfg app () in
         let cp, plan_p = Baselines.crat engine cfg app () in
         let cs, plan_s = Baselines.crat ~mode:`Static engine cfg app () in
         ( app.Workloads.App.abbr
         , Baselines.speedup_over ~baseline:o cp
         , Baselines.speedup_over ~baseline:o cs
         , plan_p.Optimizer.opt_tlp
         , plan_s.Optimizer.opt_tlp ))
      apps
  in
  Figure.make ~title:[ "Fig 20: CRAT-profile vs CRAT-static" ]
    Figure.[ left "app" 6; right "profile" 9; right "static" 9; right "optP" 7; right "optS" 7 ]
    (List.map
       (fun (abbr, sp, ss, op, os) ->
          Figure.[ Text abbr; Float (sp, 3); Float (ss, 3); Int op; Int os ])
       rows)
    ~summary:
      [ Printf.sprintf "geomean: profile %.3f, static %.3f"
          (geomean (List.map (fun (_, sp, _, _, _) -> sp) rows))
          (geomean (List.map (fun (_, _, ss, _, _) -> ss) rows))
      ]

(* ---------- energy ---------- *)

let energy comps =
  let rows =
    List.map
      (fun c ->
         let e stats = Energy.total (Energy.of_stats stats) in
         (c.app.Workloads.App.abbr, e c.crat.Baselines.stats /. e c.opt_tlp.Baselines.stats))
      comps
  in
  Figure.make ~title:[ "Energy: CRAT normalised to OptTLP" ]
    Figure.[ left "" 6; right "" 8 ]
    (List.map (fun (abbr, ratio) -> Figure.[ Text abbr; Float (ratio, 3) ]) rows)
    ~summary:[ Printf.sprintf "mean saving %.1f%%" (100. *. (1. -. mean (List.map snd rows))) ]

(* ---------- overhead ---------- *)

(* a static estimate takes milliseconds, so a single call's time is
   mostly noise *)
let static_calls = 9

let overhead engine cfg apps =
  let cpu_seconds f =
    let t0 = Sys.time () in
    ignore (f ());
    Sys.time () -. t0
  in
  Figure.make
    ~title:
      [ Printf.sprintf
          "Overhead: OptTLP by profiling vs static analysis (static: median of %d calls)"
          static_calls
      ]
    Figure.[ left "app" 6; right "runs" 6; right "profiling(s)" 12; right "static(s)" 12 ]
    (List.map
       (fun app ->
          let r = Engine.resource engine cfg app in
          let a = Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs in
          (* a fresh engine without replay runs every TLP cold, so the
             profiling cost is actually paid here *)
          let cold = Engine.create ~jobs:(Engine.jobs engine) ~replay:false () in
          let profiling_seconds =
            cpu_seconds (fun () ->
              Opttlp.profile cold cfg app
                ~kernel:a.Regalloc.Allocator.kernel ~max_tlp:r.Resource.max_tlp ())
          in
          let static =
            Array.init static_calls (fun _ ->
              cpu_seconds (fun () ->
                Opttlp.estimate_static cfg app ~max_tlp:r.Resource.max_tlp ()))
          in
          Array.sort Float.compare static;
          Figure.
            [ Text app.Workloads.App.abbr
            ; Int r.Resource.max_tlp
            ; Float (profiling_seconds, 2)
            ; Float (static.(static_calls / 2), 4)
            ])
       apps)

(* ---------- tables ---------- *)

let tab1 engine cfg apps =
  Figure.make ~title:[ "Table 1: collected resource-usage parameters" ]
    Figure.
      [ left "app" 6
      ; right "MaxReg" 7
      ; right "MinReg" 7
      ; right "Block" 6
      ; right "ShmSize" 8
      ; right "MaxTLP" 7
      ; right "OptTLP" 8
      ; right "OptTLP*" 8
      ]
    (Engine.map engine
       (fun app ->
          let r = Engine.resource engine cfg app in
          let p = Opttlp.profile engine cfg app ~max_tlp:r.Resource.max_tlp () in
          let s = Opttlp.estimate_static cfg app ~max_tlp:r.Resource.max_tlp () in
          Figure.
            [ Text app.Workloads.App.abbr
            ; Int r.Resource.max_reg
            ; Int r.Resource.min_reg
            ; Int r.Resource.block_size
            ; Int r.Resource.shm_size
            ; Int r.Resource.max_tlp
            ; Int p.Opttlp.opt_tlp
            ; Int s
            ])
       apps)
    ~summary:[ "(OptTLP* = static estimate)" ]

let tab2 cfg =
  Figure.make ~title:[ "Table 2: simulated GPGPU-Sim-like configuration" ] [] []
    ~summary:(lines Gpusim.Config.pp cfg)

let tab3 () =
  Figure.make ~title:[ "Table 3: applications" ] [] []
    ~summary:(lines Workloads.Suite.pp_table ())

(* ---------- ablations ---------- *)

let ablation_scheduler engine cfg apps =
  Figure.make ~title:[ "Ablation: GTO vs LRR warp scheduling at OptTLP" ]
    Figure.[ left "app" 6; right "GTO" 10; right "LRR" 10; right "LRR/GTO" 8 ]
    (Engine.map engine
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
          let gto = run `Gto in
          let lrr = run `Lrr in
          Figure.
            [ Text app.Workloads.App.abbr
            ; Int gto
            ; Int lrr
            ; Float (float_of_int lrr /. float_of_int gto, 3)
            ])
       apps)

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
  Figure.make
    ~title:
      [ "Ablation: Algorithm 1 sub-stack granularity (1000 = whole-type stacks, the paper)" ]
    Figure.[ right "chunk" 6; right "shm-insts" 10; right "local" 10; right "cycles" 10 ]
    (List.map2
       (fun (chunk, a) (st : Gpusim.Stats.t) ->
          Figure.
            [ Int chunk
            ; Int a.Regalloc.Allocator.stats.Regalloc.Spill.num_shared
            ; Int a.Regalloc.Allocator.stats.Regalloc.Spill.num_local
            ; Int st.Gpusim.Stats.cycles
            ])
       builds stats)

let ablation_type_strict apps =
  Figure.make
    ~title:[ "Ablation: PTX type-affinity in colouring (paper Sec. 5.2 register waste)" ]
    Figure.[ left "app" 6; right "strict" 8; right "loose" 8; right "waste" 8 ]
    (List.map
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
          Figure.
            [ Text app.Workloads.App.abbr
            ; Int s.Regalloc.Coloring.colors_used
            ; Int l.Regalloc.Coloring.colors_used
            ; Int s.Regalloc.Coloring.type_waste
            ])
       apps)

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
  Figure.make ~title:[ "Ablation: allocator extension (rematerialisation)" ]
    Figure.
      [ left "variant" 10; right "instrs" 8; right "local" 8; right "remat" 8; right "cycles" 10 ]
    (List.map2
       (fun (variant, a) (st : Gpusim.Stats.t) ->
          Figure.
            [ Text variant
            ; Int (Ptx.Kernel.instr_count a.Regalloc.Allocator.kernel)
            ; Int a.Regalloc.Allocator.stats.Regalloc.Spill.num_local
            ; Int a.Regalloc.Allocator.stats.Regalloc.Spill.num_remat
            ; Int st.Gpusim.Stats.cycles
            ])
       builds stats)

(* ---------- multi-SM scaling ---------- *)

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
  Figure.make ~title:[ "Multi-SM scaling (work per SM held constant; shared L2/DRAM)" ]
    Figure.[ right "SMs" 5; right "cycles" 10; right "IPC" 8 ]
    (Engine.map engine
       (fun sms ->
          let grid = sms * input.Workloads.App.num_blocks in
          let r =
            Gpusim.Gpu.run ~sms cfg
              (Workloads.App.launch app ~kernel ~tlp
                 ~input:{ input with Workloads.App.num_blocks = grid } ())
          in
          Figure.[ Int sms; Int r.Gpusim.Gpu.total_cycles; Float (Gpusim.Gpu.aggregate_ipc r, 2) ])
       [ 1; 2; 4; 8; 15 ])

(* ---------- cache-bypassing extension ---------- *)

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
    Figure.
      [ Text label
      ; Int e.Baselines.tlp
      ; Int stats.Gpusim.Stats.cycles
      ; Float (Gpusim.Stats.l1_hit_rate stats, 3)
      ]
  in
  Figure.make ~title:[ "Extension: CRAT composed with static L1 bypassing of global traffic" ]
    Figure.[ left "technique" 15; right "TLP" 4; right "cycles" 10; right "L1hit" 7 ]
    [ run "MaxTLP" m false
    ; run "MaxTLP+bypass" m true
    ; run "CRAT" c false
    ; run "CRAT+bypass" c true
    ]

(* ---------- dynamic throttling baseline ---------- *)

let dynamic_tlp engine cfg apps =
  Figure.make
    ~title:[ "Dynamic throttling (DynCTA-style controller) vs offline OptTLP vs CRAT" ]
    Figure.
      [ left "app" 6; right "MaxTLP" 10; right "DynTLP" 10; right "OptTLP" 10; right "CRAT" 10 ]
    (Engine.map engine
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
          Figure.
            [ Text app.Workloads.App.abbr
            ; Int (Baselines.cycles m)
            ; Int dyn.Gpusim.Stats.cycles
            ; Int (Baselines.cycles o)
            ; Int (Baselines.cycles c)
            ])
       apps)
