type entry =
  { pc : int
  ; instr : Ptx.Instr.t
  ; mask : int
  ; def_value : Value.t option
  }

(* the log holds [max_steps] entries: stop scheduling the block *)
exception Full

let warp_trace ?(max_steps = 10_000) ~ctaid ~warp (l : Launch.t) =
  if ctaid < 0 || ctaid >= l.Launch.num_blocks then
    invalid_arg "Trace.warp_trace: no such block";
  let lctx = Simt.launch_ctx ~image:(Image.prepare l.Launch.kernel) l in
  let _block, warps =
    Interp.make_block lctx ~ctaid ~warp_size:l.Launch.warp_size
  in
  if warp < 0 || warp >= List.length warps then
    invalid_arg "Trace.warp_trace: no such warp";
  let target = List.nth warps warp in
  let log = ref [] in
  let steps = ref 0 in
  let step w =
    let pending =
      if w != target then None
      else begin
        if !steps >= max_steps then raise Full;
        let pc = Interp.pc w in
        let mask = Interp.active_mask w in
        Option.map (fun instr -> (pc, mask, instr)) (Interp.peek w)
      end
    in
    let exec = Interp.step w in
    Option.iter
      (fun (pc, mask, instr) ->
         incr steps;
         let def_value =
           match Ptx.Instr.defs instr with
           | d :: _ -> Some (Interp.read_reg_values w d).(0)
           | [] -> None
         in
         log := { pc; instr; mask; def_value } :: !log)
      pending;
    match exec with
    | Interp.E_barrier -> Simt.Barrier
    | Interp.E_exit -> Simt.Exit
    | Interp.E_alu _ | Interp.E_mem _ -> Simt.Step
  in
  (try Simt.run_block ~is_done:Interp.is_done ~warps ~step with Full -> ());
  List.rev !log

let pp_entry fmt e =
  Format.fprintf fmt "%5d %08x  %a" e.pc (e.mask land 0xFFFFFFFF) Ptx.Instr.pp
    e.instr;
  match e.def_value with
  | Some v -> Format.fprintf fmt "   ; lane0 = %a" Value.pp v
  | None -> ()

let pp fmt entries =
  Format.fprintf fmt "%5s %8s  %s@." "pc" "mask" "instruction";
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) entries
