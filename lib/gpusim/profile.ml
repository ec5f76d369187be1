type mem_stat =
  { mutable m_execs : int
  ; mutable max_segments : int
  ; mutable max_bank_degree : int
  ; m_space : Ptx.Types.space
  }

type branch_stat =
  { mutable b_execs : int
  ; mutable b_divergent : int
  }

type t =
  { mem_tbl : (int, mem_stat) Hashtbl.t
  ; branch_tbl : (int, branch_stat) Hashtbl.t
  }

let mem_stat t pc space =
  match Hashtbl.find_opt t.mem_tbl pc with
  | Some s -> s
  | None ->
    let s = { m_execs = 0; max_segments = 0; max_bank_degree = 0; m_space = space } in
    Hashtbl.add t.mem_tbl pc s;
    s

let branch_stat t pc =
  match Hashtbl.find_opt t.branch_tbl pc with
  | Some s -> s
  | None ->
    let s = { b_execs = 0; b_divergent = 0 } in
    Hashtbl.add t.branch_tbl pc s;
    s

(* the access's cost, counted exactly as the timing model counts it *)
let record_mem t sc pc (space : Ptx.Types.space) lane_addrs =
  let s = mem_stat t pc space in
  s.m_execs <- s.m_execs + 1;
  Coalescer.reset sc;
  List.iter (fun (_, a) -> Coalescer.add sc a) lane_addrs;
  match space with
  | Ptx.Types.Global | Ptx.Types.Local ->
    s.max_segments <- max s.max_segments (Coalescer.segments sc)
  | Ptx.Types.Shared ->
    s.max_bank_degree <- max s.max_bank_degree (Coalescer.bank_degree sc)
  | _ -> ()

(* A conditional branch splits the warp when both the taken and the
   fall-through lane sets are non-empty; replicated from the
   interpreter's own test before stepping over it. *)
let record_branch t w =
  match Refinterp.peek w with
  | Some (Ptx.Instr.Bra_pred (p, sense, _)) ->
    let pc = Refinterp.pc w in
    let mask = Refinterp.active_mask w in
    let values = Refinterp.read_reg_values w p in
    let taken = ref 0 in
    Array.iteri
      (fun lane v ->
         if mask land (1 lsl lane) <> 0 && Value.to_bool v = sense then
           taken := !taken lor (1 lsl lane))
      values;
    let fall = mask land lnot !taken in
    let s = branch_stat t pc in
    s.b_execs <- s.b_execs + 1;
    if !taken <> 0 && fall <> 0 then s.b_divergent <- s.b_divergent + 1
  | _ -> ()

let run ?(line = 128) ?(banks = 32) ?sanitize (l : Launch.t) =
  let lctx = Simt.launch_ctx ?sanitize ~image:(Image.prepare l.Launch.kernel) l in
  let t = { mem_tbl = Hashtbl.create 64; branch_tbl = Hashtbl.create 16 } in
  let sc = Coalescer.create ~lanes:l.Launch.warp_size ~line ~banks in
  let step w =
    record_branch t w;
    let pc = Refinterp.pc w in
    match Refinterp.step w with
    | Refinterp.E_barrier -> Simt.Barrier
    | Refinterp.E_exit -> Simt.Exit
    | Refinterp.E_mem { space; lane_addrs; _ } ->
      record_mem t sc pc space lane_addrs;
      Simt.Step
    | Refinterp.E_alu _ -> Simt.Step
  in
  for ctaid = 0 to l.Launch.num_blocks - 1 do
    let _block, warps =
      Refinterp.make_block lctx ~ctaid ~warp_size:l.Launch.warp_size
    in
    Simt.run_block ~is_done:Refinterp.is_done ~warps ~step
  done;
  t

let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> Stdlib.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let mems t = sorted t.mem_tbl
let branches t = sorted t.branch_tbl
