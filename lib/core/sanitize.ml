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
  let launch () =
    Gpusim.Launch.make ~warp_size:cfg.Gpusim.Config.warp_size ~kernel
      ~block_size:app.App.block_size ~num_blocks:input.App.num_blocks ~params
      (App.memory app input)
  in
  let rt = Sancheck.runtime (San.mask report) in
  Gpusim.Refinterp.run ~sanitize:rt (launch ());
  (* the same launch on the fast interpreter must probe exactly the
     same lanes *)
  let fast = Sancheck.runtime (San.mask report) in
  Gpusim.Emulator.run ~sanitize:fast (launch ());
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let counts (s : Sancheck.stat) =
    (s.Sancheck.seen, s.Sancheck.checked, s.Sancheck.violations, s.Sancheck.first)
  in
  let ref_stats = Sancheck.stats rt.Sancheck.counters in
  let fast_stats = Sancheck.stats fast.Sancheck.counters in
  if
    List.map (fun (pc, s) -> (pc, counts s)) ref_stats
    <> List.map (fun (pc, s) -> (pc, counts s)) fast_stats
  then
    fail
      "%s: the fast interpreter's sanitizer counters differ from the \
       reference's (%d/%d/%d lane accesses seen/checked/violating, against \
       %d/%d/%d)"
      app.App.abbr
      (Sancheck.seen fast.Sancheck.counters)
      (Sancheck.checked fast.Sancheck.counters)
      (Sancheck.violations fast.Sancheck.counters)
      (Sancheck.seen rt.Sancheck.counters)
      (Sancheck.checked rt.Sancheck.counters)
      (Sancheck.violations rt.Sancheck.counters);
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
