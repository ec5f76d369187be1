(* Figure harness: regenerates every table and figure of the paper's
   evaluation. Timing and throughput live in perfbench/perf.exe.

   Usage:
     dune exec bench/main.exe                 # all experiments, full size
     dune exec bench/main.exe -- --fast       # reduced app sets
     dune exec bench/main.exe -- --only fig13,tab1
     dune exec bench/main.exe -- --jobs 4     # fan simulations over 4 domains
     dune exec bench/main.exe -- --backend machine --only fig13 *)

let fermi = Gpusim.Config.fermi
let kepler = Gpusim.Config.kepler

type ctx =
  { engine : Crat.Engine.t
  ; backend : Machine.Backend.t  (** register-file model of the fig13 family *)
  ; sensitive : Workloads.App.t list
  ; insensitive : Workloads.App.t list
  ; input_apps : Workloads.App.t list  (** fig18 *)
  }

let full_ctx ?(backend = Machine.Backend.Ptx) engine =
  { engine
  ; backend
  ; sensitive = Workloads.Suite.sensitive
  ; insensitive = Workloads.Suite.insensitive
  ; input_apps = [ Workloads.Suite.find "CFD"; Workloads.Suite.find "BLK" ]
  }

let fast_ctx ?(backend = Machine.Backend.Ptx) engine =
  { engine
  ; backend
  ; sensitive =
      List.map Workloads.Suite.find [ "CFD"; "KMN"; "FDTD"; "STM"; "BLK" ]
  ; insensitive = List.map Workloads.Suite.find [ "PATH"; "GAU"; "BFS" ]
  ; input_apps = [ Workloads.Suite.find "BLK" ]
  }

let fmt = Format.std_formatter

(* fig13 and its companions share one set of comparisons *)
let comparisons = ref None

let get_comparisons ctx =
  match !comparisons with
  | Some c -> c
  | None ->
    let _, comps =
      Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine fermi ctx.sensitive
    in
    comparisons := Some comps;
    comps

let experiments : (string * string * (ctx -> unit)) list =
  [ ( "tab2"
    , "Table 2: simulated configuration"
    , fun _ ->
        Format.fprintf fmt "Table 2: simulated GPGPU-Sim-like configuration@.%a@."
          Gpusim.Config.pp fermi )
  ; ( "tab3"
    , "Table 3: applications"
    , fun _ -> Format.fprintf fmt "Table 3: applications@.%a@." Workloads.Suite.pp_table () )
  ; ( "tab1"
    , "Table 1: resource-usage parameters"
    , fun ctx ->
        Crat.Experiments.pp_tab1 fmt
          (Crat.Experiments.tab1 ctx.engine fermi ctx.sensitive) )
  ; ( "fig1"
    , "Fig 1: throttling benefit and register waste"
    , fun ctx ->
        Crat.Experiments.pp_fig1 fmt
          (Crat.Experiments.fig1 ctx.engine fermi ctx.sensitive) )
  ; ( "fig2"
    , "Fig 2: (reg, TLP) design space for CFD"
    , fun ctx ->
        Crat.Experiments.pp_fig2 fmt
          (Crat.Experiments.fig2 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig3"
    , "Fig 3: selected design points for CFD"
    , fun ctx ->
        Crat.Experiments.pp_fig3 fmt
          (Crat.Experiments.fig3 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig5"
    , "Fig 5: throttling impact on the L1"
    , fun ctx ->
        Crat.Experiments.pp_fig5 fmt
          (Crat.Experiments.fig5 ctx.engine fermi ctx.sensitive) )
  ; ( "fig6"
    , "Fig 6: registers vs TLP and instruction count (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_fig6 fmt
          (Crat.Experiments.fig6 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig7"
    , "Fig 7: register vs shared-memory utilization"
    , fun ctx ->
        Crat.Experiments.pp_fig7 fmt
          (Crat.Experiments.fig7 fermi (ctx.sensitive @ ctx.insensitive)) )
  ; ( "fig8"
    , "Fig 8: FDTD register/shared exploration"
    , fun ctx ->
        Crat.Experiments.pp_fig8 fmt
          (Crat.Experiments.fig8 ctx.engine fermi (Workloads.Suite.find "FDTD")) )
  ; ( "fig11"
    , "Fig 11: design-space staircase and pruning (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_fig11 fmt
          (Crat.Experiments.fig11 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig12"
    , "Fig 12: spill-bytes validation (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_fig12 fmt
          (Crat.Experiments.fig12 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig13"
    , "Fig 13: headline performance comparison"
    , fun ctx ->
        let rows, comps =
          Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine fermi
            ctx.sensitive
        in
        comparisons := Some comps;
        Crat.Experiments.pp_fig13 fmt rows )
  ; ( "fig14"
    , "Fig 14: selected TLP"
    , fun ctx -> Crat.Experiments.pp_fig14 fmt (Crat.Experiments.fig14 (get_comparisons ctx)) )
  ; ( "fig15"
    , "Fig 15: register utilization"
    , fun ctx ->
        Crat.Experiments.pp_fig15 fmt
          (Crat.Experiments.fig15 fermi (get_comparisons ctx)) )
  ; ( "fig16"
    , "Fig 16: local-memory access reduction"
    , fun ctx -> Crat.Experiments.pp_fig16 fmt (Crat.Experiments.fig16 (get_comparisons ctx)) )
  ; ( "fig17"
    , "Fig 17: Kepler-like scalability"
    , fun ctx ->
        let rows, _ =
          Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine kepler
            ctx.sensitive
        in
        Format.fprintf fmt "Fig 17: Kepler-like architecture@.";
        Crat.Experiments.pp_fig13 fmt rows )
  ; ( "fig18"
    , "Fig 18: input sensitivity"
    , fun ctx ->
        Crat.Experiments.pp_fig18 fmt
          (Crat.Experiments.fig18 ctx.engine fermi ctx.input_apps) )
  ; ( "fig19"
    , "Fig 19: resource-insensitive applications"
    , fun ctx ->
        let rows, _ =
          Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine fermi
            ctx.insensitive
        in
        Format.fprintf fmt "Fig 19: resource-insensitive applications@.";
        Crat.Experiments.pp_fig13 fmt rows )
  ; ( "fig20"
    , "Fig 20: CRAT-profile vs CRAT-static"
    , fun ctx ->
        Crat.Experiments.pp_fig20 fmt
          (Crat.Experiments.fig20 ctx.engine fermi ctx.sensitive) )
  ; ( "energy"
    , "Energy: CRAT vs OptTLP"
    , fun ctx -> Crat.Experiments.pp_energy fmt (Crat.Experiments.energy (get_comparisons ctx)) )
  ; ( "overhead"
    , "Overhead: profiling vs static analysis"
    , fun ctx ->
        Crat.Experiments.pp_overhead fmt
          (Crat.Experiments.overhead ctx.engine fermi ctx.sensitive) )
  ; ( "dyn-tlp"
    , "Baseline: online DynCTA-style throttling"
    , fun ctx ->
        Crat.Experiments.pp_dynamic_tlp fmt
          (Crat.Experiments.dynamic_tlp ctx.engine fermi
             (List.map Workloads.Suite.find [ "KMN"; "STM"; "SPMV"; "CFD" ])) )
  ; ( "ext-bypass"
    , "Extension: CRAT + static L1 bypassing (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_extension_bypass fmt
          (Crat.Experiments.extension_bypass ctx.engine fermi
             (Workloads.Suite.find "CFD")) )
  ; ( "abl-sched"
    , "Ablation: GTO vs LRR warp scheduling"
    , fun ctx ->
        Crat.Experiments.pp_ablation_scheduler fmt
          (Crat.Experiments.ablation_scheduler ctx.engine fermi
             (List.map Workloads.Suite.find [ "CFD"; "KMN"; "STM" ])) )
  ; ( "abl-chunk"
    , "Ablation: Algorithm 1 sub-stack granularity"
    , fun ctx ->
        Crat.Experiments.pp_ablation_chunk fmt
          (Crat.Experiments.ablation_chunk ctx.engine fermi
             (Workloads.Suite.find "STE") ~reg:40) )
  ; ( "gpu-scale"
    , "Multi-SM scaling (KMN, shared memory system)"
    , fun ctx ->
        Crat.Experiments.pp_gpu_scaling fmt
          (Crat.Experiments.gpu_scaling ctx.engine fermi
             (Workloads.Suite.find "KMN") ~tlp:2) )
  ; ( "abl-alloc"
    , "Ablation: allocator extension (rematerialisation)"
    , fun ctx ->
        Crat.Experiments.pp_ablation_allocator fmt
          (Crat.Experiments.ablation_allocator ctx.engine fermi
             (Workloads.Suite.find "CFD") ~reg:48) )
  ; ( "abl-type"
    , "Ablation: type-affine colouring (register waste)"
    , fun ctx ->
        Crat.Experiments.pp_ablation_type_strict fmt
          (Crat.Experiments.ablation_type_strict (ctx.sensitive @ ctx.insensitive)) )
  ]

(* ---------- driver ---------- *)

let () =
  let fast = ref false in
  let only = ref [] in
  let jobs = ref 1 in
  let replay = ref true in
  let backend = ref Machine.Backend.Ptx in
  let spec =
    [ ("--fast", Arg.Set fast, " reduced application sets")
    ; ( "--only"
      , Arg.String (fun s -> only := String.split_on_char ',' s)
      , "IDS comma-separated experiment ids (e.g. fig13,tab1)" )
    ; ( "--jobs"
      , Arg.Set_int jobs
      , "N fan independent allocations/simulations over N domains (default 1)" )
    ; ( "--replay"
      , Arg.Set replay
      , " record each launch's trace once and replay it across timing \
         points (default)" )
    ; ( "--no-replay"
      , Arg.Clear replay
      , " run every simulation cold through the functional front-end" )
    ; ( "--backend"
      , Arg.Symbol
          ( List.map Machine.Backend.to_string Machine.Backend.all
          , fun s ->
              match Machine.Backend.of_string s with
              | Some b -> backend := b
              | None -> raise (Arg.Bad ("unknown backend " ^ s)) )
      , " register-file model for the fig13 sweep family (default ptx)" )
    ]
  in
  Arg.parse spec
    (fun _ -> ())
    "bench/main.exe [--fast] [--only ids] [--jobs N] [--replay|--no-replay] \
     [--backend ptx|machine]";
  if !jobs < 1 then begin
    prerr_endline "bench: --jobs must be >= 1";
    exit 2
  end;
  List.iter
    (fun id ->
       if not (List.exists (fun (id', _, _) -> id' = id) experiments) then begin
         Printf.eprintf "bench: unknown experiment id %S (see --help)\n" id;
         exit 2
       end)
    !only;
  let engine = Crat.Engine.create ~jobs:!jobs ~replay:!replay () in
  let ctx =
    if !fast then fast_ctx ~backend:!backend engine
    else full_ctx ~backend:!backend engine
  in
  let wanted (id, _, _) = !only = [] || List.mem id !only in
  let t_all = Unix.gettimeofday () in
  List.iter
    (fun ((id, descr, run) as e) ->
       if wanted e then begin
         let t0 = Unix.gettimeofday () in
         Format.fprintf fmt "==== %s: %s ====@." id descr;
         run ctx;
         Format.fprintf fmt "(%.1fs)@.@." (Unix.gettimeofday () -. t0)
       end)
    experiments;
  Format.fprintf fmt "total %.1fs; %a@."
    (Unix.gettimeofday () -. t_all)
    Crat.Engine.pp_report (Crat.Engine.report engine)
