(* The evaluation engine: content-addressed store, key structure,
   jobs=1/jobs=N determinism and multi-domain stress. *)

let fermi = Gpusim.Config.fermi
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_app abbr =
  let a = Workloads.Suite.find abbr in
  let i = Workloads.App.default_input a in
  let small =
    { i with
      Workloads.App.num_blocks = 4
    ; iters = min 2 i.Workloads.App.iters
    ; passes = min 2 i.Workloads.App.passes
    ; ilabel = "eng-small"
    }
  in
  { a with Workloads.App.inputs = [ small ] }

let launch_of ?kernel ?tlp ?input a =
  let input =
    match input with
    | Some i -> i
    | None -> Workloads.App.default_input a
  in
  Workloads.App.launch a ?kernel ?tlp ~input ()

(* ---------- key structure ---------- *)

(* Regression: the old evaluation cache was keyed on a free-form variant
   label and ignored the kernel image, so two different builds of the
   same app at the same TLP collided. Keys must cover kernel identity. *)
let test_key_covers_kernel_identity () =
  let e = Crat.Engine.create () in
  let a = small_app "STM" in
  let r = Crat.Resource.analyze fermi a in
  let k_hi =
    (Crat.Engine.allocate e a ~reg_limit:r.Crat.Resource.max_reg)
      .Regalloc.Allocator.kernel
  in
  let k_lo =
    (Crat.Engine.allocate e a ~reg_limit:(r.Crat.Resource.max_reg - 4))
      .Regalloc.Allocator.kernel
  in
  check "builds differ" true
    (Ptx.Printer.kernel_to_string k_hi <> Ptx.Printer.kernel_to_string k_lo);
  check "keys separate the two builds" true
    (Crat.Engine.sim_key e (launch_of ~kernel:k_hi a) fermi ~tlp:2
     <> Crat.Engine.sim_key e (launch_of ~kernel:k_lo a) fermi ~tlp:2);
  let s_hi = Crat.Engine.simulate e (launch_of ~kernel:k_hi a) fermi ~tlp:2 in
  let s_lo = Crat.Engine.simulate e (launch_of ~kernel:k_lo a) fermi ~tlp:2 in
  let rep = Crat.Engine.report e in
  check_int "both builds simulated" 2 rep.Crat.Engine.sim_runs;
  (* the spilling build executes more instructions *)
  check "stats are per-build" true
    (s_lo.Gpusim.Stats.thread_instrs > s_hi.Gpusim.Stats.thread_instrs)

let test_key_covers_config_input_tlp () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let input = Workloads.App.default_input a in
  let l = launch_of ~input a in
  let key = Crat.Engine.sim_key e l fermi ~tlp:2 in
  check "TLP in key" true (key <> Crat.Engine.sim_key e l fermi ~tlp:3);
  check "config in key" true
    (key <> Crat.Engine.sim_key e l Gpusim.Config.kepler ~tlp:2);
  let other =
    { input with Workloads.App.num_blocks = input.Workloads.App.num_blocks + 1 }
  in
  check "input in key" true
    (key <> Crat.Engine.sim_key e (launch_of ~input:other a) fermi ~tlp:2)

(* The trace-store key covers everything the dynamic trace depends on —
   and nothing it does not: timing configuration and TLP must NOT
   separate launches, while params and initial memory must. *)
let test_launch_key_scope () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let input = Workloads.App.default_input a in
  let l = launch_of ~input a in
  let key = Crat.Engine.launch_key e l in
  check "launch_key ignores TLP" true
    (let l3 = Gpusim.Launch.with_tlp l 3 in
     Crat.Engine.launch_key e l3 = key);
  check "sim_key still separates configs the launch_key ignores" true
    (Crat.Engine.sim_key e l fermi ~tlp:2
     <> Crat.Engine.sim_key e l Gpusim.Config.kepler ~tlp:2);
  let other =
    { input with Workloads.App.num_blocks = input.Workloads.App.num_blocks + 1 }
  in
  check "launch_key separates inputs (params and memory)" true
    (Crat.Engine.launch_key e (launch_of ~input:other a) <> key);
  (* structurally identical launch built from scratch: the physical
     memo misses but the content key must agree *)
  check "launch_key is structural, not physical" true
    (Crat.Engine.launch_key e (launch_of ~input a) = key)

(* QCheck: distinct kernel images get distinct keys *)
let test_key_injective =
  QCheck.Test.make ~count:60 ~name:"sim_key injective on kernel image"
    QCheck.(pair Testsupport.Gen.arbitrary_kernel Testsupport.Gen.arbitrary_kernel)
    (fun (k1, k2) ->
       let e = Crat.Engine.create () in
       let mk k =
         let mem = Gpusim.Memory.create () in
         Gpusim.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2
           ~params:[ ("out", Gpusim.Value.I 0x2000_0000L) ]
           mem
       in
       let same_image =
         Ptx.Printer.kernel_to_string k1 = Ptx.Printer.kernel_to_string k2
       in
       let same_key =
         Crat.Engine.sim_key e (mk k1) fermi ~tlp:1
         = Crat.Engine.sim_key e (mk k2) fermi ~tlp:1
       in
       same_image = same_key)

(* ---------- store behaviour ---------- *)

let test_batch_dedups () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let l = launch_of a in
  let stats =
    Crat.Engine.simulate_batch e
      (List.map (fun tlp -> (l, fermi, tlp)) [ 1; 2; 1; 2; 1 ])
  in
  check_int "five results" 5 (List.length stats);
  let rep = Crat.Engine.report e in
  check_int "two distinct simulations" 2 rep.Crat.Engine.sim_runs;
  check "duplicates answered from the store" true (rep.Crat.Engine.sim_hits >= 3);
  (* both TLP points share one launch: one recorded it, the other replayed *)
  check_int "one trace recorded" 1 rep.Crat.Engine.trace_records;
  check_int "one point replayed" 1 rep.Crat.Engine.trace_replays;
  check "results scattered in submission order" true
    (List.nth stats 0 = List.nth stats 2
     && List.nth stats 0 = List.nth stats 4
     && List.nth stats 1 = List.nth stats 3
     && List.nth stats 0 <> List.nth stats 1)

(* The overhead experiment's cold profile: a fresh engine without
   replay simulates every distinct point functionally, whatever another
   engine has already recorded, and still answers the same. *)
let test_fresh_engine_runs_cold () =
  let a = small_app "GAU" in
  let l = launch_of a in
  let warm = Crat.Engine.create () in
  let s1 = Crat.Engine.simulate warm l fermi ~tlp:1 in
  let cold = Crat.Engine.create ~replay:false () in
  let stats = Crat.Engine.simulate_batch cold [ (l, fermi, 1); (l, fermi, 2) ] in
  let rep = Crat.Engine.report cold in
  check_int "every distinct point simulates" 2 rep.Crat.Engine.sim_runs;
  check_int "no trace recorded" 0 rep.Crat.Engine.trace_records;
  check_int "no trace replayed" 0 rep.Crat.Engine.trace_replays;
  check "and still answers the same" true (List.hd stats = s1)

(* ---------- claim-or-wait across callers ---------- *)

(* Two domains submitting the same batch share one computation of each
   key and one recording of the launch, whatever the interleaving. *)
let test_concurrent_batches_dedup () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let l = launch_of a in
  let batch = List.map (fun tlp -> (l, fermi, tlp)) [ 1; 2; 3; 4 ] in
  let d1 = Domain.spawn (fun () -> Crat.Engine.simulate_batch e batch) in
  let d2 = Domain.spawn (fun () -> Crat.Engine.simulate_batch e batch) in
  let r1 = Domain.join d1 in
  let r2 = Domain.join d2 in
  check "identical answers" true (r1 = r2);
  let rep = Crat.Engine.report e in
  check_int "each distinct key simulated once" 4 rep.Crat.Engine.sim_runs;
  check_int "the other batch's points were hits" 4 rep.Crat.Engine.sim_hits;
  check_int "the launch recorded once" 1 rep.Crat.Engine.trace_records

(* A batch that raises abandons the claims it did not publish: a later
   caller asking for one of them computes it instead of waiting on a
   claim nobody holds. *)
let test_failed_batch_releases_claims () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let good = launch_of a in
  let bad = { good with Gpusim.Launch.params = [] } in
  (match Crat.Engine.simulate_batch e [ (bad, fermi, 1); (good, fermi, 1) ] with
   | _ -> Alcotest.fail "a launch with unbound parameters simulated"
   | exception Invalid_argument msg ->
     Alcotest.(check string) "the bad point's error"
       "Interp: unbound parameter inp" msg);
  let st = Crat.Engine.simulate e good fermi ~tlp:1 in
  check "the good point still answers" true
    (st = Crat.Engine.simulate (Crat.Engine.create ()) good fermi ~tlp:1)

(* ---------- determinism across jobs ---------- *)

let test_jobs_determinism () =
  let apps = List.map small_app [ "GAU"; "KMN"; "STM" ] in
  let run jobs =
    let e = Crat.Engine.create ~jobs () in
    let fig, comps = Crat.Experiments.fig13 e fermi apps in
    (fig, List.map (fun c -> c.Crat.Experiments.crat.Crat.Baselines.stats) comps)
  in
  let fig1, stats1 = run 1 in
  let fig4, stats4 = run 4 in
  check "fig13 rows bit-identical (jobs=1 vs jobs=4)" true (fig1 = fig4);
  check "underlying stats bit-identical" true (stats1 = stats4)

let test_design_space_batch_determinism () =
  let a = small_app "BLK" in
  let r = Crat.Resource.analyze fermi a in
  let points = Crat.Design_space.stairs fermi r in
  let eval jobs =
    Crat.Design_space.evaluate (Crat.Engine.create ~jobs ()) fermi a points
  in
  check "frontier evaluation identical across jobs" true (eval 1 = eval 3)

(* ---------- multi-domain stress ---------- *)

let test_parallel_stress () =
  let e = Crat.Engine.create ~jobs:8 () in
  let a = small_app "GAU" in
  (* many tasks, few distinct keys: domains race on the same store
     entries, the trace store and the allocation cache *)
  let tasks = List.init 32 (fun i -> i) in
  let results =
    Crat.Engine.map e
      (fun i ->
         let reg = a.Workloads.App.default_regs - (i mod 2) in
         let al = Crat.Engine.allocate e a ~reg_limit:reg in
         let st =
           Crat.Engine.simulate e
             (launch_of ~kernel:al.Regalloc.Allocator.kernel a)
             fermi ~tlp:(1 + (i mod 3))
         in
         (i, st.Gpusim.Stats.cycles))
      tasks
  in
  check_int "all tasks returned" 32 (List.length results);
  check "order preserved" true (List.map fst results = tasks);
  (* serial reference *)
  let serial = Crat.Engine.create () in
  List.iter
    (fun (i, cycles) ->
       let reg = a.Workloads.App.default_regs - (i mod 2) in
       let al = Crat.Engine.allocate serial a ~reg_limit:reg in
       let st =
         Crat.Engine.simulate serial
           (launch_of ~kernel:al.Regalloc.Allocator.kernel a)
           fermi ~tlp:(1 + (i mod 3))
       in
       check_int (Printf.sprintf "task %d matches serial" i)
         st.Gpusim.Stats.cycles cycles)
    results;
  (* racing domains may duplicate a simulation whose key is in flight,
     but every request is accounted as exactly one run or one hit *)
  let rep = Crat.Engine.report e in
  check "every request accounted" true
    (rep.Crat.Engine.sim_runs + rep.Crat.Engine.sim_hits = 32
     && rep.Crat.Engine.alloc_runs + rep.Crat.Engine.alloc_hits = 32);
  check "at least the distinct work ran" true
    (rep.Crat.Engine.sim_runs >= 6 && rep.Crat.Engine.alloc_runs >= 2);
  check "store still absorbed most of the load" true
    (rep.Crat.Engine.sim_hits > 0 && rep.Crat.Engine.alloc_hits > 0)

let test_reset () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let _ = Crat.Baselines.max_tlp e fermi a () in
  check "work recorded" true ((Crat.Engine.report e).Crat.Engine.sim_runs > 0);
  Crat.Engine.reset e;
  let rep = Crat.Engine.report e in
  check_int "counters cleared" 0 rep.Crat.Engine.sim_runs;
  let _ = Crat.Baselines.max_tlp e fermi a () in
  check "store cleared too: simulation re-runs" true
    ((Crat.Engine.report e).Crat.Engine.sim_runs > 0)

(* [Engine.resource] analyses each (app descriptor, config, backend)
   once: a repeat answers the memoized value, which is structurally the
   direct analysis on both backends and both targets. The key is the
   descriptor, not the abbreviation: a resized block is analysed anew. *)
let test_resource_memo () =
  let e = Crat.Engine.create () in
  List.iter
    (fun abbr ->
       let a = Workloads.Suite.find abbr in
       List.iter
         (fun (cfg : Gpusim.Config.t) ->
            List.iter
              (fun backend ->
                 let what =
                   Printf.sprintf "%s %s %s" abbr cfg.Gpusim.Config.name
                     (Machine.Backend.to_string backend)
                 in
                 let r = Crat.Engine.resource e ~backend cfg a in
                 check (what ^ ": repeat answers the memoized value") true
                   (Crat.Engine.resource e ~backend cfg a == r);
                 check (what ^ ": equals Resource.analyze") true
                   (r = Crat.Resource.analyze ~backend cfg a))
              [ Machine.Backend.Ptx; Machine.Backend.Machine ])
         [ fermi; Gpusim.Config.kepler ])
    [ "GAU"; "KMN"; "BFS"; "CFD" ];
  let a = Workloads.Suite.find "GAU" in
  let wide = { a with Workloads.App.block_size = 2 * a.Workloads.App.block_size } in
  check_int "resized block analysed anew" wide.Workloads.App.block_size
    (Crat.Engine.resource e fermi wide).Crat.Resource.block_size

let test_create_validates () =
  check "jobs=0 rejected" true
    (try
       ignore (Crat.Engine.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "engine"
    [ ( "keys"
      , [ Alcotest.test_case "kernel identity in key (collision regression)"
            `Slow test_key_covers_kernel_identity
        ; Alcotest.test_case "config/input/TLP in key" `Quick
            test_key_covers_config_input_tlp
        ; Alcotest.test_case "launch_key scope (no config/TLP)" `Quick
            test_launch_key_scope
        ; QCheck_alcotest.to_alcotest test_key_injective
        ] )
    ; ( "store"
      , [ Alcotest.test_case "batch dedup" `Slow test_batch_dedups
        ; Alcotest.test_case "fresh engine runs cold" `Slow
            test_fresh_engine_runs_cold
        ; Alcotest.test_case "reset" `Slow test_reset
        ; Alcotest.test_case "resource memo equals Resource.analyze" `Slow
            test_resource_memo
        ; Alcotest.test_case "create validates jobs" `Quick test_create_validates
        ] )
    ; ( "parallel"
      , [ Alcotest.test_case "fig13 determinism across jobs" `Slow
            test_jobs_determinism
        ; Alcotest.test_case "frontier determinism across jobs" `Slow
            test_design_space_batch_determinism
        ; Alcotest.test_case "8-domain stress vs serial" `Slow
            test_parallel_stress
        ; Alcotest.test_case "two domains, one batch: computed once" `Slow
            test_concurrent_batches_dedup
        ; Alcotest.test_case "failed batch abandons its claims" `Slow
            test_failed_batch_releases_claims
        ] )
    ]
