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
let record_mem t sc c pc (space : Ptx.Types.space) =
  let s = mem_stat t pc space in
  s.m_execs <- s.m_execs + 1;
  Coalescer.load sc (Replay.mem_bits c) (Replay.mem_first c) (Replay.mem_count c);
  match space with
  | Ptx.Types.Global | Ptx.Types.Local ->
    s.max_segments <- max s.max_segments (Coalescer.segments sc)
  | Ptx.Types.Shared ->
    s.max_bank_degree <- max s.max_bank_degree (Coalescer.bank_degree sc)
  | _ -> ()

(* A conditional branch split the warp iff the warp's next instruction
   issued under a different mask. *)
let record_branch t c pc mask =
  let s = branch_stat t pc in
  s.b_execs <- s.b_execs + 1;
  if (not (Replay.is_done c)) && Replay.active_mask c <> mask then
    s.b_divergent <- s.b_divergent + 1

let run ?(line = 128) ?(banks = 32) (l : Launch.t) =
  let tr = Replay.create l in
  ignore (Emulator.run ~record:tr l);
  let code = (Replay.image tr).Image.code.Dcode.code in
  let t = { mem_tbl = Hashtbl.create 64; branch_tbl = Hashtbl.create 16 } in
  let sc = Coalescer.create ~lanes:l.Launch.warp_size ~line ~banks in
  for ctaid = 0 to l.Launch.num_blocks - 1 do
    for wid = 0 to (l.Launch.block_size / l.Launch.warp_size) - 1 do
      let c = Replay.cursor tr ~ctaid ~wid in
      while not (Replay.is_done c) do
        let pc = Replay.fetch c in
        let mask = Replay.active_mask c in
        match Replay.step c with
        | Dcode.E_mem { space; _ } -> record_mem t sc c pc space
        | Dcode.E_alu _ | Dcode.E_barrier | Dcode.E_exit ->
          (match code.(pc) with
           | Dcode.DBra_pred _ -> record_branch t c pc mask
           | _ -> ())
      done
    done
  done;
  t

let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> Stdlib.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let mems t = sorted t.mem_tbl
let branches t = sorted t.branch_tbl
