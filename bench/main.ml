(* Figure harness: regenerates every table and figure of the paper's
   evaluation. Timing and throughput live in perfbench/perf.exe.
   The figures go to stdout, which FIGURES.txt pins; what times this
   host (each experiment's seconds, the total line and the overhead
   table) goes to stderr, so `bench/main.exe --jobs 2 > FIGURES.txt`
   regenerates the pin.

   Usage:
     dune exec bench/main.exe                 # all experiments, full size
     dune exec bench/main.exe -- --fast       # reduced app sets
     dune exec bench/main.exe -- --only fig13,tab1
     dune exec bench/main.exe -- --jobs 4     # fan simulations over 4 domains
     dune exec bench/main.exe -- --backend machine --only fig13 *)

let fermi = Gpusim.Config.fermi

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

let cfd = Workloads.Suite.find "CFD"

let experiments : (string * string * (ctx -> Crat.Figure.t)) list =
  let open Crat.Experiments in
  [ ("tab2", "Table 2: simulated configuration", fun _ -> tab2 fermi)
  ; ("tab3", "Table 3: applications", fun _ -> tab3 ())
  ; ( "tab1"
    , "Table 1: resource-usage parameters"
    , fun ctx -> tab1 ctx.engine fermi ctx.sensitive )
  ; ( "fig1"
    , "Fig 1: throttling benefit and register waste"
    , fun ctx -> fig1 ctx.engine fermi ctx.sensitive )
  ; ("fig2", "Fig 2: (reg, TLP) design space for CFD", fun ctx -> fig2 ctx.engine fermi cfd)
  ; ("fig3", "Fig 3: selected design points for CFD", fun ctx -> fig3 ctx.engine fermi cfd)
  ; ( "fig5"
    , "Fig 5: throttling impact on the L1"
    , fun ctx -> fig5 ctx.engine fermi ctx.sensitive )
  ; ( "fig6"
    , "Fig 6: registers vs TLP and instruction count (CFD)"
    , fun ctx -> fig6 ctx.engine fermi cfd )
  ; ( "fig7"
    , "Fig 7: register vs shared-memory utilization"
    , fun ctx -> fig7 fermi (ctx.sensitive @ ctx.insensitive) )
  ; ( "fig8"
    , "Fig 8: FDTD register/shared exploration"
    , fun ctx -> fig8 ctx.engine fermi (Workloads.Suite.find "FDTD") )
  ; ( "fig11"
    , "Fig 11: design-space staircase and pruning (CFD)"
    , fun ctx -> fig11 ctx.engine fermi cfd )
  ; ("fig12", "Fig 12: spill-bytes validation (CFD)", fun ctx -> fig12 ctx.engine fermi cfd)
  ; ( "fig13"
    , "Fig 13: headline performance comparison"
    , fun ctx ->
        let fig, comps = fig13 ~backend:ctx.backend ctx.engine fermi ctx.sensitive in
        comparisons := Some comps;
        fig )
  ; ("fig14", "Fig 14: selected TLP", fun ctx -> fig14 (get_comparisons ctx))
  ; ("fig15", "Fig 15: register utilization", fun ctx -> fig15 fermi (get_comparisons ctx))
  ; ("fig16", "Fig 16: local-memory access reduction", fun ctx -> fig16 (get_comparisons ctx))
  ; ( "fig17"
    , "Fig 17: Kepler-like scalability"
    , fun ctx -> fig17 ~backend:ctx.backend ctx.engine ctx.sensitive )
  ; ("fig18", "Fig 18: input sensitivity", fun ctx -> fig18 ctx.engine fermi ctx.input_apps)
  ; ( "fig19"
    , "Fig 19: resource-insensitive applications"
    , fun ctx -> fig19 ~backend:ctx.backend ctx.engine fermi ctx.insensitive )
  ; ( "fig20"
    , "Fig 20: CRAT-profile vs CRAT-static"
    , fun ctx -> fig20 ctx.engine fermi ctx.sensitive )
  ; ("energy", "Energy: CRAT vs OptTLP", fun ctx -> energy (get_comparisons ctx))
  ; ( "overhead"
    , "Overhead: profiling vs static analysis"
    , fun ctx -> overhead ctx.engine fermi ctx.sensitive )
  ; ( "dyn-tlp"
    , "Baseline: online DynCTA-style throttling"
    , fun ctx ->
        dynamic_tlp ctx.engine fermi (List.map Workloads.Suite.find [ "KMN"; "STM"; "SPMV"; "CFD" ])
    )
  ; ( "ext-bypass"
    , "Extension: CRAT + static L1 bypassing (CFD)"
    , fun ctx -> extension_bypass ctx.engine fermi cfd )
  ; ( "abl-sched"
    , "Ablation: GTO vs LRR warp scheduling"
    , fun ctx ->
        ablation_scheduler ctx.engine fermi (List.map Workloads.Suite.find [ "CFD"; "KMN"; "STM" ])
    )
  ; ( "abl-chunk"
    , "Ablation: Algorithm 1 sub-stack granularity"
    , fun ctx -> ablation_chunk ctx.engine fermi (Workloads.Suite.find "STE") ~reg:40 )
  ; ( "gpu-scale"
    , "Multi-SM scaling (KMN, shared memory system)"
    , fun ctx -> gpu_scaling ctx.engine fermi (Workloads.Suite.find "KMN") ~tlp:2 )
  ; ( "abl-alloc"
    , "Ablation: allocator extension (rematerialisation)"
    , fun ctx -> ablation_allocator ctx.engine fermi cfd ~reg:48 )
  ; ( "abl-type"
    , "Ablation: type-affine colouring (register waste)"
    , fun ctx -> ablation_type_strict (ctx.sensitive @ ctx.insensitive) )
  ]

(* The overhead table times this host: like the seconds each experiment
   took, it goes to stderr, so stdout is the deterministic figures *)
let host_timed id = id = "overhead"

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
         let out = if host_timed id then Format.err_formatter else Format.std_formatter in
         Format.fprintf out "==== %s: %s ====@." id descr;
         Crat.Figure.pp out (run ctx);
         Format.eprintf "(%.1fs)@." (Unix.gettimeofday () -. t0);
         Format.fprintf out "@."
       end)
    experiments;
  Format.eprintf "total %.1fs; %a@."
    (Unix.gettimeofday () -. t_all)
    Crat.Engine.pp_report (Crat.Engine.report engine)
