type stats =
  { n_defs : int
  ; n_uses : int
  ; weighted : float
  }

let empty = { n_defs = 0; n_uses = 0; weighted = 0. }

let compute (flow : Flow.t) =
  let depths = Loops.instr_depths flow in
  let weight i = 10. ** float_of_int (min depths.(i) 4) in
  let m = ref Ptx.Reg.Map.empty in
  let bump r f =
    let s = Option.value ~default:empty (Ptx.Reg.Map.find_opt r !m) in
    m := Ptx.Reg.Map.add r (f s) !m
  in
  Flow.iter_instrs flow (fun i ins ->
    let w = weight i in
    List.iter
      (fun r -> bump r (fun s -> { s with n_defs = s.n_defs + 1; weighted = s.weighted +. w }))
      (Ptx.Instr.defs ins);
    List.iter
      (fun r -> bump r (fun s -> { s with n_uses = s.n_uses + 1; weighted = s.weighted +. w }))
      (Ptx.Instr.uses ins));
  !m
