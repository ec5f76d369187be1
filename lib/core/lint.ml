module App = Workloads.App
module Advisor = Verify.Advisor
module Access = Absint.Access
module Profile = Gpusim.Profile

let geometry (cfg : Gpusim.Config.t) =
  (cfg.Gpusim.Config.warp_size, cfg.Gpusim.Config.l1_line, cfg.Gpusim.Config.shared_banks)

let lint ?(cfg = Gpusim.Config.fermi) ?regs (app : App.t) =
  let warp_size, line, banks = geometry cfg in
  let regs = Option.value ~default:app.App.default_regs regs in
  Advisor.lint_kernel ~block_size:app.App.block_size ~reg_budget:regs
    ~warp_size ~line ~banks (App.kernel app)

let validate ?(cfg = Gpusim.Config.fermi) ?input (app : App.t) =
  let warp_size, line, banks = geometry cfg in
  let input =
    match input with
    | Some i -> i
    | None -> App.default_input app
  in
  let kernel = App.kernel app in
  let params = App.params app input in
  let report =
    Advisor.lint_kernel ~block_size:app.App.block_size
      ~num_blocks:input.App.num_blocks ~params:(App.int_params app input)
      ~reg_budget:app.App.default_regs ~warp_size ~line ~banks kernel
  in
  let prof =
    Profile.run ~line ~banks
      (Gpusim.Launch.make ~warp_size ~kernel ~block_size:app.App.block_size
         ~num_blocks:input.App.num_blocks ~params
         (App.memory app input))
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let mems = report.Advisor.access.Access.mems in
  let branches = report.Advisor.access.Access.branches in
  List.iter
    (fun (pc, (s : Profile.mem_stat)) ->
       match List.find_opt (fun (m : Access.mem) -> m.Access.pc = pc) mems with
       | None ->
         fail "%s[%d]: dynamic %s access has no static record" app.App.abbr pc
           (Ptx.Types.space_to_string s.Profile.m_space)
       | Some m ->
         (match m.Access.seg_bound with
          | Some b when s.Profile.max_segments > b ->
            fail
              "%s[%d]: claimed at most %d segments per warp access, observed %d"
              app.App.abbr pc b s.Profile.max_segments
          | _ -> ());
         (match m.Access.bank_bound with
          | Some b when s.Profile.max_bank_degree > b ->
            fail
              "%s[%d]: claimed bank-conflict degree at most %d, observed %d"
              app.App.abbr pc b s.Profile.max_bank_degree
          | _ -> ()))
    (Profile.mems prof);
  List.iter
    (fun (pc, (s : Profile.branch_stat)) ->
       match
         List.find_opt (fun (b : Access.branch) -> b.Access.bpc = pc) branches
       with
       | None ->
         fail "%s[%d]: dynamic conditional branch has no static record"
           app.App.abbr pc
       | Some b ->
         if b.Access.uniform && s.Profile.b_divergent > 0 then
           fail
             "%s[%d]: branch claimed uniform but split the warp %d time(s)"
             app.App.abbr pc s.Profile.b_divergent)
    (Profile.branches prof);
  (report, List.rev !failures)
