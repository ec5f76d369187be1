module App = Workloads.App
module San = Verify.Sanitize
module Sancheck = Gpusim.Sancheck

type stage_report =
  { stage : string
  ; report : (San.report, string) result
  }

let stages ?regs ?spare (app : App.t) =
  let block_size = app.App.block_size in
  let pre, post, alloc = Compile.stages ?shared_spare:spare ?regs app in
  let sanitize k = San.sanitize_kernel ~block_size k in
  [ { stage = "pre-opt"; report = Ok (sanitize pre) }
  ; { stage = "post-opt"; report = Ok (sanitize post) }
  ; { stage = "post-alloc"
    ; report =
        Result.map (fun a -> sanitize a.Regalloc.Allocator.kernel) alloc
    }
  ]

type dynamic =
  { report : San.report
  ; counters : Sancheck.counters
  ; failures : string list
  }

let validate ?(cfg = Gpusim.Config.fermi) ?input (app : App.t) =
  let input =
    match input with
    | Some i -> i
    | None -> App.default_input app
  in
  let kernel = App.kernel app in
  let params = App.params app input in
  let report =
    San.sanitize_kernel ~block_size:app.App.block_size
      ~num_blocks:input.App.num_blocks ~params:(App.int_params app input) kernel
  in
  let rt = Sancheck.runtime (San.mask report) in
  ignore
    (Gpusim.Emulator.run ~sanitize:rt
       (Gpusim.Launch.make ~warp_size:cfg.Gpusim.Config.warp_size ~kernel
          ~block_size:app.App.block_size ~num_blocks:input.App.num_blocks ~params
          (App.memory app input)));
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun d ->
       if Verify.Diagnostic.is_error d then
         fail "%s: static %s" app.App.abbr (Verify.Diagnostic.to_string d))
    report.San.diags;
  List.iter
    (fun (pc, (s : Sancheck.stat)) ->
       if s.Sancheck.violations > 0 then
         match s.Sancheck.first with
         | Some v ->
           fail
             "%s[%d]: %d out-of-bounds lane access(es); first: lane %d tid \
              %d at offset %Ld"
             app.App.abbr pc s.Sancheck.violations v.Sancheck.v_lane
             v.Sancheck.v_tid v.Sancheck.v_addr
         | None ->
           fail "%s[%d]: %d out-of-bounds lane access(es)" app.App.abbr pc
             s.Sancheck.violations)
    (Sancheck.stats rt.Sancheck.counters);
  { report; counters = rt.Sancheck.counters; failures = List.rev !failures }
