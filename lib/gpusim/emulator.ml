let run ?sanitize (l : Launch.t) =
  let lctx = Simt.launch_ctx ?sanitize ~image:(Image.prepare l.Launch.kernel) l in
  for ctaid = 0 to l.Launch.num_blocks - 1 do
    let _block, warps =
      Interp.make_block lctx ~ctaid ~warp_size:l.Launch.warp_size
    in
    Simt.run_block ~is_done:Interp.is_done ~warps ~step:(fun w ->
      match Interp.step w with
      | Interp.E_barrier -> Simt.Barrier
      | Interp.E_exit -> Simt.Exit
      | Interp.E_alu _ | Interp.E_mem _ -> Simt.Step)
  done

let run_to_memory (l : Launch.t) =
  let m = Memory.copy l.Launch.memory in
  run { l with Launch.memory = m };
  m
