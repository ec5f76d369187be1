(* End-to-end integration tests: the full CRAT pipeline over real
   workloads, cross-checked between the emulator and the timing
   simulator, plus shape assertions on the headline comparison. These
   run on reduced inputs to keep `dune runtest` fast. *)

let fermi = Gpusim.Config.fermi
let kepler = Gpusim.Config.kepler
let check = Alcotest.(check bool)

let small_app ?(blocks = 4) abbr =
  let a = Workloads.Suite.find abbr in
  let i = Workloads.App.default_input a in
  let small =
    { i with
      Workloads.App.num_blocks = blocks
    ; iters = min 2 i.Workloads.App.iters
    ; passes = min 3 i.Workloads.App.passes
    ; ilabel = "it-small"
    }
  in
  { a with Workloads.App.inputs = [ small ] }

(* CRAT's rewritten kernel computes the same results as the virgin SSA
   kernel, for every workload shape (run on the emulator) *)
let test_crat_kernels_semantically_equal () =
  List.iter
    (fun abbr ->
       let a = small_app abbr in
       let i = Workloads.App.default_input a in
       let _, plan = Crat.Baselines.crat (Crat.Engine.create ()) fermi a () in
       let chosen = plan.Crat.Optimizer.chosen in
       let run kernel =
         Gpusim.Memory.read_f32_array
           (Gpusim.Emulator.run (Workloads.App.launch a ~kernel ~input:i ()))
           ~base:Workloads.Data.out_base (Workloads.App.output_words a i)
       in
       let reference = run (Workloads.App.kernel a) in
       let allocated = run chosen.Crat.Optimizer.alloc.Regalloc.Allocator.kernel in
       check (abbr ^ ": CRAT build is semantics-preserving") true
         (Testsupport.Gen.outputs_equal reference allocated))
    [ "CFD"; "KMN"; "STM"; "SPMV"; "HST" ]

(* headline shape: CRAT never loses to OptTLP, and beats it where the
   paper says it should *)
let test_fig13_shape_small () =
  let engine = Crat.Engine.create () in
  let apps = List.map small_app [ "CFD"; "KMN"; "STM" ] in
  let fig, comps = Crat.Experiments.fig13 engine fermi apps in
  List.iter
    (function
      | Crat.Figure.[ Text abbr; Float _; Float _; Float (s_crat_local, _); Float (s_crat, _) ] ->
        check (abbr ^ ": CRAT >= 0.95x OptTLP") true (s_crat >= 0.95);
        check (abbr ^ ": CRAT >= CRAT-local - eps") true (s_crat >= s_crat_local -. 0.1)
      | _ -> Alcotest.fail "fig13 row shape")
    fig.Crat.Figure.rows;
  (* fig14 companion: CRAT TLP never exceeds MaxTLP *)
  List.iter
    (function
      | Crat.Figure.[ Text _; Int tlp_max; Int tlp_crat ] ->
        check "CRAT TLP <= MaxTLP" true (tlp_crat <= tlp_max)
      | _ -> Alcotest.fail "fig14 row shape")
    (Crat.Experiments.fig14 comps).Crat.Figure.rows

let test_insensitive_apps_flat () =
  let engine = Crat.Engine.create () in
  let apps = List.map small_app [ "GAU"; "PATH" ] in
  let _, comps = Crat.Experiments.fig13 engine fermi apps in
  List.iter
    (fun (c : Crat.Experiments.comparison) ->
       let s_crat = Crat.Experiments.speedup_vs_opt c c.Crat.Experiments.crat in
       check (c.Crat.Experiments.app.Workloads.App.abbr ^ ": insensitive stays near 1.0") true
         (s_crat >= 0.9 && s_crat <= 1.35))
    comps

let test_kepler_runs () =
  let a = small_app "KMN" in
  let c, plan = Crat.Baselines.crat (Crat.Engine.create ()) kepler a () in
  check "kepler MinReg doubles the register budget" true
    (Gpusim.Config.min_reg kepler > Gpusim.Config.min_reg fermi + 5);
  check "kepler plan valid" true
    (plan.Crat.Optimizer.chosen.Crat.Optimizer.point.Crat.Design_space.reg
     <= kepler.Gpusim.Config.max_regs_per_thread);
  check "kepler run completed" true (Crat.Baselines.cycles c > 0)

let test_shared_spill_reduces_local_traffic () =
  let engine = Crat.Engine.create () in
  (* STE spills even at the register cap; Algorithm 1 must strictly
     reduce the dynamic local-memory traffic *)
  let a = small_app "STE" in
  let cl, _ = Crat.Baselines.crat ~shared_spilling:false engine fermi a () in
  let c, _ = Crat.Baselines.crat engine fermi a () in
  let local_l = Gpusim.Stats.local_accesses cl.Crat.Baselines.stats in
  let local_s = Gpusim.Stats.local_accesses c.Crat.Baselines.stats in
  check "CRAT-local has local spill traffic" true (local_l > 0);
  check "Algorithm 1 reduces local traffic" true (local_s < local_l)

let test_static_mode_runs () =
  let a = small_app "KMN" in
  let c, plan =
    Crat.Baselines.crat ~mode:`Static (Crat.Engine.create ()) fermi a ()
  in
  check "static mode completes" true (Crat.Baselines.cycles c > 0);
  check "static opt in range" true
    (plan.Crat.Optimizer.opt_tlp >= 1
     && plan.Crat.Optimizer.opt_tlp <= plan.Crat.Optimizer.resource.Crat.Resource.max_tlp)

let test_energy_not_worse () =
  let apps = List.map small_app [ "KMN"; "CFD" ] in
  let _, comps = Crat.Experiments.fig13 (Crat.Engine.create ()) fermi apps in
  List.iter
    (function
      | Crat.Figure.[ Text abbr; Float (ratio, _) ] ->
        check (abbr ^ ": energy ratio sane") true (ratio > 0.2 && ratio < 1.2)
      | _ -> Alcotest.fail "energy row shape")
    (Crat.Experiments.energy comps).Crat.Figure.rows

let () =
  Alcotest.run "integration"
    [ ( "pipeline"
      , [ Alcotest.test_case "CRAT builds preserve semantics" `Slow
            test_crat_kernels_semantically_equal
        ; Alcotest.test_case "fig13 shape (small)" `Slow test_fig13_shape_small
        ; Alcotest.test_case "insensitive apps flat" `Slow test_insensitive_apps_flat
        ; Alcotest.test_case "Kepler configuration" `Slow test_kepler_runs
        ; Alcotest.test_case "shared spilling reduces local traffic" `Slow
            test_shared_spill_reduces_local_traffic
        ; Alcotest.test_case "static mode" `Slow test_static_mode_runs
        ; Alcotest.test_case "energy ratios sane" `Slow test_energy_not_worse
        ] )
    ]
