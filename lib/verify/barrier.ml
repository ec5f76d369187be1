module D = Diagnostic

let check an =
  let flow = Absint.Analysis.flow an in
  let kernel = flow.Cfg.Flow.kernel.Ptx.Kernel.name in
  let diags = ref [] in
  Cfg.Flow.iter_instrs flow (fun i ins ->
    let b = flow.Cfg.Flow.block_of_instr.(i) in
    if Absint.Analysis.divergent_block an b then
      match ins with
      | Ptx.Instr.Bar_sync ->
        diags :=
          D.error ~instr:i ~block:b ~kernel ~code:"V301"
            "bar.sync under divergent control flow (potential deadlock)"
          :: !diags
      | Ptx.Instr.Ret ->
        diags :=
          D.warning ~instr:i ~block:b ~kernel ~code:"V302"
            "ret under divergent control flow"
          :: !diags
      | _ -> ());
  D.sort !diags
