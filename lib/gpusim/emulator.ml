(* Append an issued instruction, and a memory op's lane addresses, to
   its warp's trace. *)
let record_step tr w ~pc ~mask (exec : Interp.exec) =
  Replay.record tr ~pc ~mask;
  match exec with
  | Interp.E_mem _ -> Replay.record_addrs tr (Interp.mem_addrs w) (Interp.mem_count w)
  | Interp.E_alu _ | Interp.E_barrier | Interp.E_exit -> ()

let run ?sanitize ?record ?(max_warp_instrs = max_int) (l : Launch.t) =
  let image =
    match record with
    | Some tr -> Replay.image tr
    | None -> Image.prepare l.Launch.kernel
  in
  let lctx = Simt.launch_ctx ?sanitize ~image l in
  let issued = ref 0 in
  for ctaid = 0 to l.Launch.num_blocks - 1 do
    let _block, warps =
      Interp.make_block lctx ~ctaid ~warp_size:l.Launch.warp_size
    in
    Simt.run_block ~is_done:Interp.is_done ~warps ~step:(fun w ->
      (* a warp that runs off the end of its code finishes without
         issuing an instruction *)
      let pc = Interp.fetch w in
      if pc >= 0 && !issued >= max_warp_instrs then raise Simt.Over_budget;
      let mask = Interp.active_mask w in
      let exec = Interp.step w in
      if pc >= 0 then begin
        incr issued;
        match record with
        | Some tr ->
          record_step (Replay.wtrace tr ~ctaid ~wid:(Interp.warp_id w)) w ~pc
            ~mask exec
        | None -> ()
      end;
      match exec with
      | Interp.E_barrier -> Simt.Barrier
      | Interp.E_exit -> Simt.Exit
      | Interp.E_alu _ | Interp.E_mem _ -> Simt.Step)
  done;
  lctx.Simt.global
