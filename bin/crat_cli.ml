(* crat — command-line driver for the CRAT framework.

   Subcommands:
     apps                         list the workload suite (Table 3)
     config [--kepler]            show the simulated architecture (Table 2)
     analyze APP                  resource-usage analysis (Table 1 row)
     allocate APP -r N [...]      run the register allocator, dump PTX
     allocate-file FILE -r N      allocate an external PTX kernel
     simulate APP [-t TLP] [...]  one timing-simulator run with statistics
     optimize APP [...]           the full CRAT pipeline + comparison
     trace APP [-w N] [-n N]      per-warp execution trace
     passes APP                   run the ptxopt cleanup pipeline
     verify APP | --all [...]     static verifier / allocation auditor
     lint APP | --all [...]       static performance advisor (P-codes)
     sanitize APP | --all [...]   hybrid memory-safety sanitizer (S-codes)
     equiv APP | --all [...]      translation validation (E-codes)
     serve [--socket --store]     the crat daemon (persistent store, dedup)
     client [APP...]              talk to a running daemon

   The four report sweeps share one driver (see sweep.ml); the
   allocate/simulate/optimize/passes commands also take [--verify],
   which arms the in-pipeline verifier gate (same as CRAT_VERIFY=1). *)

open Cmdliner

let config_of_kepler = Sweep.config_of_kepler
let find_app = Sweep.find_app

(* ---------- shared args ---------- *)

let app_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP"
         ~doc:"Application abbreviation from Table 3 (e.g. CFD, KMN).")

let kepler_arg =
  Arg.(value & flag & info [ "kepler" ] ~doc:"Use the Kepler-like configuration.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg "expected a positive integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let regs_arg =
  Arg.(value & opt (some positive_int) None & info [ "r"; "regs" ] ~docv:"N"
         ~doc:"Per-thread register limit (default: the app's default).")

(* the allocator rejects a limit below the kernel's minimum with
   [Failure]: a user error, exit 1 *)
let allocate_or_exit allocate =
  try allocate ()
  with Failure msg ->
    Format.eprintf "crat: %s@." msg;
    exit 1

let jobs_arg =
  Arg.(value & opt positive_int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Fan independent allocations/simulations over $(docv) domains.")

(* Trace-driven replay is the default; [--no-replay] forces every
   simulation to run cold through the functional front-end. *)
let replay_arg =
  let no_replay =
    Arg.(value & flag & info [ "no-replay" ]
           ~doc:"Disable the trace-replay cache: re-execute every \
                 simulation functionally instead of replaying the \
                 launch's recorded trace.")
  in
  Term.(const not $ no_replay)

let backend_arg =
  let backend_conv =
    let parse s =
      match Machine.Backend.of_string s with
      | Some b -> Ok b
      | None -> Error (`Msg "expected 'ptx' or 'machine'")
    in
    Arg.conv
      ( parse
      , fun fmt b -> Format.pp_print_string fmt (Machine.Backend.to_string b) )
  in
  Arg.(value & opt backend_conv Machine.Backend.Ptx
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Register-file model: $(b,ptx) (one per-thread file, the \
                 paper's setup) or $(b,machine) (lower to the SASS-like ISA \
                 with split per-thread vector and per-warp scalar files; \
                 proven warp-uniform values are scalarized).")

let gate_arg =
  let doc =
    "Arm the static-verifier gate: every pipeline stage is re-verified and \
     the command aborts on the first error-severity diagnostic (same as \
     setting CRAT_VERIFY=1)."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let arm_gate enabled = if enabled then Verify.Gate.set true

(* ---------- apps ---------- *)

let apps_cmd =
  let doc = "List the benchmark suite (paper Table 3)." in
  let run () = Format.printf "%a" Workloads.Suite.pp_table () in
  Cmd.v (Cmd.info "apps" ~doc) Term.(const run $ const ())

(* ---------- config ---------- *)

let config_cmd =
  let doc = "Show the simulated GPU configuration (paper Table 2)." in
  let run kepler = Format.printf "%a" Gpusim.Config.pp (config_of_kepler kepler) in
  Cmd.v (Cmd.info "config" ~doc) Term.(const run $ kepler_arg)

(* ---------- analyze ---------- *)

let analyze_cmd =
  let doc = "Resource-usage analysis: MaxReg/MinReg/MaxTLP/ShmSize + OptTLP." in
  let run kepler abbr backend static jobs replay =
    let cfg = config_of_kepler kepler in
    let app = find_app abbr in
    let r = Crat.Resource.analyze ~backend cfg app in
    Format.printf "%s [%s]: %a@." abbr
      (Machine.Backend.to_string backend)
      Crat.Resource.pp r;
    if backend = Machine.Backend.Machine then
      Format.printf "scalar file: %d units/warp@." r.Crat.Resource.sregs_per_warp;
    let opt =
      if static then Crat.Opttlp.estimate_static cfg app ~max_tlp:r.Crat.Resource.max_tlp ()
      else
        let engine = Crat.Engine.create ~jobs ~replay () in
        (Crat.Opttlp.profile engine cfg app ~max_tlp:r.Crat.Resource.max_tlp ())
          .Crat.Opttlp.opt_tlp
    in
    Format.printf "OptTLP (%s): %d@." (if static then "static" else "profiled") opt;
    let stairs = Crat.Design_space.stairs cfg r in
    Format.printf "staircase:";
    List.iter (fun p -> Format.printf " %a" Crat.Design_space.pp_point p) stairs;
    Format.printf "@."
  in
  let static =
    Arg.(value & flag & info [ "static" ] ~doc:"Estimate OptTLP statically instead of profiling.")
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ kepler_arg $ app_arg $ backend_arg $ static $ jobs_arg
          $ replay_arg)

(* ---------- allocate ---------- *)

let do_allocate ?(backend = Machine.Backend.Ptx) kernel ~label ~block_size
    ~regs ~spare ~linear_scan ~dump =
  let strategy =
    if linear_scan then Regalloc.Allocator.Linear_scan
    else Regalloc.Allocator.Chaitin_briggs
  in
  let a =
    allocate_or_exit (fun () ->
      Crat.Compile.allocate ~strategy ~backend ~shared_spare:spare ~label
        ~block_size ~reg_limit:regs kernel)
  in
  Format.printf
    "allocated at limit %d: %d vector units used, %d predicates, %d spilled@."
    regs a.Regalloc.Allocator.units_used a.Regalloc.Allocator.pred_used
    (List.length a.Regalloc.Allocator.spilled);
  Format.printf
    "spill code: %d local + %d shared accesses, %d setup instrs; %dB local/thread, %dB shared/block@."
    a.Regalloc.Allocator.stats.Regalloc.Spill.num_local
    a.Regalloc.Allocator.stats.Regalloc.Spill.num_shared
    a.Regalloc.Allocator.stats.Regalloc.Spill.num_other
    a.Regalloc.Allocator.spill_local_bytes
    a.Regalloc.Allocator.spill_shared_bytes_per_block;
  match backend with
  | Machine.Backend.Ptx ->
    if dump then
      print_string (Ptx.Printer.kernel_to_string a.Regalloc.Allocator.kernel)
  | Machine.Backend.Machine ->
    Format.printf "scalar file: %d units/warp (%d registers scalarized)@."
      a.Regalloc.Allocator.scalar_units_used a.Regalloc.Allocator.scalarized;
    let m = Machine.Lower.run a in
    Format.printf
      "machine code: %d insns, V=%d S=%d P=%d@."
      (Array.length m.Machine.Lower.code)
      m.Machine.Lower.vector_units m.Machine.Lower.scalar_units
      m.Machine.Lower.pred_count;
    if dump then Format.printf "%a" Machine.Lower.pp m

let spare_arg =
  Arg.(value & opt int 0 & info [ "shared-spare" ] ~docv:"BYTES"
         ~doc:"Spare shared memory per block for Algorithm 1 (0 = local only).")

let ls_arg =
  Arg.(value & flag & info [ "linear-scan" ] ~doc:"Use the linear-scan reference allocator.")

let dump_arg =
  Arg.(value & flag & info [ "dump" ] ~doc:"Print the allocated PTX kernel.")

let allocate_cmd =
  let doc = "Allocate registers for a suite kernel at a per-thread limit." in
  let run abbr backend regs spare linear_scan dump gate =
    arm_gate gate;
    let app = find_app abbr in
    let regs = Option.value ~default:app.Workloads.App.default_regs regs in
    do_allocate ~backend (Workloads.App.kernel app) ~label:abbr
      ~block_size:app.Workloads.App.block_size ~regs ~spare ~linear_scan ~dump
  in
  Cmd.v (Cmd.info "allocate" ~doc)
    Term.(const run $ app_arg $ backend_arg $ regs_arg $ spare_arg $ ls_arg
          $ dump_arg $ gate_arg)

let allocate_file_cmd =
  let doc = "Allocate registers for an external PTX kernel file." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"PTX source file.")
  in
  let regs =
    Arg.(value & opt positive_int 16 & info [ "r"; "regs" ] ~docv:"N"
           ~doc:"Register limit.")
  in
  let block =
    Arg.(value & opt positive_int 128 & info [ "block" ] ~docv:"N"
           ~doc:"Thread-block size.")
  in
  let run file regs block spare linear_scan dump gate =
    arm_gate gate;
    let src = In_channel.with_open_text file In_channel.input_all in
    match Ptx.Parser.parse_kernel src with
    | Error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 1
    | Ok kernel ->
      do_allocate kernel ~label:"cli" ~block_size:block ~regs ~spare
        ~linear_scan ~dump
  in
  Cmd.v (Cmd.info "allocate-file" ~doc)
    Term.(const run $ file $ regs $ block $ spare_arg $ ls_arg $ dump_arg
          $ gate_arg)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let doc = "Run one configuration on the timing simulator and print statistics." in
  let tlp_arg =
    Arg.(value & opt (some int) None & info [ "t"; "tlp" ] ~docv:"N"
           ~doc:"Concurrent thread blocks (default: occupancy maximum).")
  in
  let input_arg =
    Arg.(value & opt string "default" & info [ "input" ] ~docv:"LABEL"
           ~doc:"Input label (see the app's descriptor).")
  in
  let run kepler abbr regs tlp input_label gate =
    arm_gate gate;
    let cfg = config_of_kepler kepler in
    let app = find_app abbr in
    let regs = Option.value ~default:app.Workloads.App.default_regs regs in
    let input = Workloads.App.find_input app input_label in
    let a =
      allocate_or_exit (fun () ->
        Crat.Compile.allocate ~label:abbr
          ~block_size:app.Workloads.App.block_size ~reg_limit:regs
          (Workloads.App.kernel app))
    in
    let tlp =
      match tlp with
      | Some tlp -> tlp
      | None -> Gpusim.Occupancy.max_tlp cfg (Crat.Resource.usage app ~regs)
    in
    let launch =
      Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel ~tlp ~input ()
    in
    Format.printf "%s at reg=%d TLP=%d on %s@." abbr regs tlp cfg.Gpusim.Config.name;
    let st = Gpusim.Sm.run cfg launch in
    Format.printf "%a" Gpusim.Stats.pp st;
    Format.printf "energy: %a@." Energy.pp (Energy.of_stats st)
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ kepler_arg $ app_arg $ regs_arg $ tlp_arg $ input_arg
          $ gate_arg)

(* ---------- passes ---------- *)

let passes_cmd =
  let doc = "Run the cleanup pipeline (const-fold, copy-prop, DCE) on a kernel." in
  let run abbr dump gate =
    arm_gate gate;
    let app = find_app abbr in
    let k = Workloads.App.kernel app in
    let k', report =
      Ptxopt.Pipeline.run ~block_size:app.Workloads.App.block_size k
    in
    Format.printf "%s: %d -> %d instructions (%a)@." abbr
      (Ptx.Kernel.instr_count k) (Ptx.Kernel.instr_count k')
      Ptxopt.Pipeline.pp_report report;
    if dump then print_string (Ptx.Printer.kernel_to_string k')
  in
  Cmd.v (Cmd.info "passes" ~doc)
    Term.(const run $ app_arg $ dump_arg $ gate_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let doc = "Print a per-warp execution trace from the functional interpreter." in
  let warp_arg =
    Arg.(value & opt int 0 & info [ "w"; "warp" ] ~docv:"N" ~doc:"Warp index within the block.")
  in
  let block_arg =
    Arg.(value & opt int 0 & info [ "b"; "block" ] ~docv:"N" ~doc:"Thread-block id.")
  in
  let steps_arg =
    Arg.(value & opt int 120 & info [ "n"; "steps" ] ~docv:"N" ~doc:"Maximum steps to log.")
  in
  let run abbr warp block steps =
    let app = find_app abbr in
    let l =
      Workloads.App.launch app ~input:(Workloads.App.default_input app) ()
    in
    match Gpusim.Trace.warp_trace ~max_steps:steps ~ctaid:block ~warp l with
    | entries -> `Ok (Format.printf "%a" Gpusim.Trace.pp entries)
    | exception Invalid_argument msg ->
      `Error
        ( true
        , Printf.sprintf "%s (%s has %d blocks of %d warps)" msg abbr
            l.Gpusim.Launch.num_blocks
            (l.Gpusim.Launch.block_size / l.Gpusim.Launch.warp_size) )
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(ret (const run $ app_arg $ warp_arg $ block_arg $ steps_arg))

(* ---------- optimize ---------- *)

let optimize_cmd =
  let doc = "Run the full CRAT pipeline and compare against MaxTLP/OptTLP." in
  let static_arg =
    Arg.(value & flag & info [ "static" ] ~doc:"Use the static OptTLP estimate (CRAT-static).")
  in
  let no_shared_arg =
    Arg.(value & flag & info [ "no-shared-spill" ] ~doc:"Disable Algorithm 1 (CRAT-local).")
  in
  let report_arg =
    Arg.(value & flag & info [ "report" ]
           ~doc:"Print the engine's job/cache statistics after the run.")
  in
  let run kepler abbr backend static no_shared jobs report gate replay =
    arm_gate gate;
    let cfg = config_of_kepler kepler in
    let app = find_app abbr in
    let mode = if static then `Static else `Profile in
    let engine = Crat.Engine.create ~jobs ~replay () in
    let m = Crat.Baselines.max_tlp ~backend engine cfg app () in
    let o = Crat.Baselines.opt_tlp ~backend engine cfg app () in
    let c, plan =
      Crat.Baselines.crat ~mode ~backend ~shared_spilling:(not no_shared)
        engine cfg app ()
    in
    Format.printf "%a@." Crat.Optimizer.pp_plan plan;
    if backend = Machine.Backend.Machine then
      Format.printf
        "machine backend: %d registers scalarized, %d scalar units/warp@."
        c.Crat.Baselines.alloc.Regalloc.Allocator.scalarized
        c.Crat.Baselines.alloc.Regalloc.Allocator.scalar_units_used;
    let show (e : Crat.Baselines.evaluated) =
      Format.printf "  %-12s reg=%2d TLP=%d %9d cycles (%.3fx vs OptTLP)@."
        e.Crat.Baselines.label e.Crat.Baselines.reg e.Crat.Baselines.tlp
        (Crat.Baselines.cycles e)
        (Crat.Baselines.speedup_over ~baseline:o e)
    in
    show m;
    show o;
    show c;
    if report then
      Format.printf "%a@." Crat.Engine.pp_report (Crat.Engine.report engine)
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(const run $ kepler_arg $ app_arg $ backend_arg $ static_arg
          $ no_shared_arg $ jobs_arg $ report_arg $ gate_arg $ replay_arg)

(* ---------- report sweeps (shared driver, see sweep.ml) ---------- *)

let verify_options =
  let mk regs linear_scan spare =
    { Sweep.default_options with Sweep.regs; linear_scan; spare }
  in
  Term.(const mk $ regs_arg $ ls_arg $ spare_arg)

let verify_cmd =
  Sweep.command Sweep.Verify
    ~doc:
      "Statically verify a kernel at every compiler stage (pre-opt, post-opt, \
       post-allocation) and audit the register allocation."
    ~all_doc:"Sweep every suite kernel; exit 1 on any error diagnostic."
    ~corpus_doc:
      "Also run the seeded known-bad corpus; each case must be rejected with \
       its documented code."
    verify_options

let lint_options =
  let validate_arg =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Record the default input's launch on the fast interpreter \
                 and check every static claim against the per-pc counters \
                 of the recorded trace.")
  in
  let mk kepler regs validate =
    { Sweep.default_options with Sweep.kepler; regs; validate }
  in
  Term.(const mk $ kepler_arg $ regs_arg $ validate_arg)

let lint_cmd =
  Sweep.command Sweep.Lint
    ~doc:
      "Static performance advisor: abstract interpretation over the kernel \
       emits P-code advisories (pressure, coalescing, bank conflicts, \
       divergence, loops); $(b,--validate) cross-checks every static claim \
       against the per-pc counters of the launch's recorded trace."
    ~all_doc:"Sweep every suite kernel; exit 1 on any violated claim."
    ~corpus_doc:"" lint_options

let sanitize_options =
  let validate_arg =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Run the default input through the functional emulator \
                 with the residual checks armed; report what fraction of \
                 dynamic lane accesses the static proofs discharged.")
  in
  let mk kepler regs spare validate =
    { Sweep.default_options with Sweep.kepler; regs; spare; validate }
  in
  Term.(const mk $ kepler_arg $ regs_arg $ spare_arg $ validate_arg)

let sanitize_cmd =
  Sweep.command Sweep.Sanitize
    ~doc:
      "Hybrid memory-safety sanitizer: static bounds proofs over every \
       shared/local/param access (S-codes), a per-stage discharge table, and \
       with $(b,--validate) a sanitized run of the default input where only \
       the unproven accesses pay a dynamic bounds check."
    ~all_doc:
      "Sweep every suite kernel; exit 1 on any proven-OOB access or dynamic \
       violation."
    ~corpus_doc:"" sanitize_options

let equiv_cmd =
  Sweep.command Sweep.Equiv
    ~doc:
      "Translation validation: symbolically prove each compiler edge \
       (optimization, register allocation, machine lowering) equivalent, \
       refute miscompiles with a concrete replayed counterexample, and \
       report everything else as unknown."
    ~all_doc:
      "Sweep every suite kernel; exit 1 unless every edge of every kernel is \
       proved."
    ~corpus_doc:
      "Also run the seeded miscompile corpus; each case must be refuted \
       (E201) with a witness that replays as a genuine divergence."
    verify_options

(* ---------- serve ---------- *)

let socket_arg =
  Arg.(value & opt string Serve.Protocol.default_socket
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let doc =
    "Run the crat daemon: a long-lived engine behind a Unix-domain socket \
     with a persistent content-addressed store. Concurrent clients share \
     in-flight work (identical requests are computed once) and every \
     recorded launch trace, allocation and statistic survives restarts in \
     $(b,--store)."
  in
  let store_arg =
    Arg.(value & opt string Serve.Protocol.default_store
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Persistent store directory (created on demand).")
  in
  let no_store_arg =
    Arg.(value & flag & info [ "no-store" ]
           ~doc:"Serve from memory only; nothing survives a restart.")
  in
  let budget_arg =
    Arg.(value & opt int Store.default_budget
         & info [ "budget" ] ~docv:"BYTES"
             ~doc:"Store byte budget; least-recently-used entries are \
                   evicted past it.")
  in
  let run socket store no_store budget jobs replay =
    let store_dir = if no_store then None else Some store in
    Format.printf "crat daemon listening on %s (store: %s)@." socket
      (match store_dir with None -> "none" | Some d -> d);
    try
      Serve.Daemon.run ~socket ?store_dir ~budget ~jobs ~replay
        ~sweep:Sweep.serve_sweep ()
    with Failure msg ->
      Format.eprintf "%s@." msg;
      exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ store_arg $ no_store_arg $ budget_arg
          $ jobs_arg $ replay_arg)

(* ---------- client ---------- *)

let client_cmd =
  let doc =
    "Talk to a running crat daemon: simulate suite points ($(i,APP)... or \
     $(b,--all)), run a server-side report sweep ($(b,--sweep)), print \
     daemon statistics ($(b,--stats)) or stop it ($(b,--shutdown))."
  in
  let apps_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"APP"
           ~doc:"Applications to simulate (default: none).")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Simulate the whole suite.")
  in
  let tlp_arg =
    Arg.(value & opt (some int) None & info [ "t"; "tlp" ] ~docv:"N"
           ~doc:"Concurrent thread blocks (default: occupancy maximum).")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the daemon's counters.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to exit.")
  in
  let sweep_arg =
    Arg.(value & opt (some string) None & info [ "sweep" ] ~docv:"KIND"
           ~doc:"Run a server-side report sweep: $(b,verify), $(b,lint), \
                 $(b,sanitize) or $(b,equiv) (over $(i,APP)... or the whole \
                 suite).")
  in
  let fail msg = Format.eprintf "client: %s@." msg; exit 1 in
  let print_stats (s : Serve.Protocol.server_stats) =
    Format.printf
      "uptime %.1fs, %d connection(s), %d request(s), %d point(s), %d dedup \
       hit(s)@."
      s.Serve.Protocol.uptime_s s.Serve.Protocol.connections
      s.Serve.Protocol.requests s.Serve.Protocol.points
      s.Serve.Protocol.dedup_hits;
    Format.printf
      "engine: %d sim run(s), %d sim hit(s), %d trace record(s), %d trace \
       replay(s), %d alloc run(s), %d alloc hit(s)@."
      s.Serve.Protocol.sim_runs s.Serve.Protocol.sim_hits
      s.Serve.Protocol.trace_records s.Serve.Protocol.trace_replays
      s.Serve.Protocol.alloc_runs s.Serve.Protocol.alloc_hits;
    Format.printf
      "store: %d entry(ies), %d / %d bytes, %d hit(s), %d miss(es), %d \
       eviction(s)@."
      s.Serve.Protocol.store_entries s.Serve.Protocol.store_bytes
      s.Serve.Protocol.store_budget s.Serve.Protocol.store_hits
      s.Serve.Protocol.store_misses s.Serve.Protocol.store_evictions;
    Format.printf "hit rate: %.3f@." (Serve.Protocol.hit_rate s)
  in
  let run socket apps all kepler regs tlp stats shutdown sweep =
    match Serve.Client.connect ~socket () with
    | Error e -> fail e
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match sweep with
       | Some kind ->
         (match Serve.Client.sweep c ~kind ~apps with
          | Error e -> fail e
          | Ok (text, failed) ->
            print_string text;
            if failed then exit 1)
       | None ->
         let abbrs =
           if all then Workloads.Suite.abbrs
           else (List.iter (fun a -> ignore (find_app a)) apps; apps)
         in
         if abbrs <> [] then begin
           let points =
             List.map
               (fun abbr -> Serve.Protocol.point ~regs ~tlp ~kepler abbr)
               abbrs
           in
           let names = Array.of_list abbrs in
           match
             Serve.Client.simulate_iter c points ~f:(fun i st ->
               Format.printf "%-5s %9d cycles, IPC %.3f@." names.(i)
                 st.Gpusim.Stats.cycles (Gpusim.Stats.ipc st))
           with
           | Error e -> fail e
           | Ok _ -> ()
         end;
         if stats then
           (match Serve.Client.server_stats c with
            | Error e -> fail e
            | Ok s -> print_stats s);
         if shutdown then
           (match Serve.Client.shutdown c with
            | Error e -> fail e
            | Ok () -> Format.printf "daemon stopped@.");
         if abbrs = [] && not stats && not shutdown then
           fail "nothing to do: name APPs or pass --all, --stats, --sweep or --shutdown")
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const run $ socket_arg $ apps_arg $ all_arg $ kepler_arg $ regs_arg
          $ tlp_arg $ stats_arg $ shutdown_arg $ sweep_arg)


let () =
  let doc = "CRAT: coordinated register allocation and TLP optimization for GPUs" in
  let info = Cmd.info "crat" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ apps_cmd; config_cmd; analyze_cmd; allocate_cmd; allocate_file_cmd
      ; simulate_cmd; optimize_cmd; trace_cmd; passes_cmd; verify_cmd
      ; lint_cmd; sanitize_cmd; equiv_cmd; serve_cmd; client_cmd ]
  in
  exit (Cmd.eval group)
