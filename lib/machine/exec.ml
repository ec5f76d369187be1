(* Executor for the machine ISA. The SIMT control — reconvergence
   stacks, lane memory, barrier scheduling —
   is Gpusim.Simt's, shared with Gpusim.Refinterp, so any behavioural
   difference between the two executors is attributable to the
   register-file model. *)

module V = Gpusim.Value
module S = Gpusim.Simt

type regs =
  { vregs : (int, V.t array) Hashtbl.t  (** vector file: per-lane *)
  ; pregs : (int, V.t array) Hashtbl.t  (** predicate file: per-lane *)
  ; sregs : (int, V.t) Hashtbl.t  (** scalar file: one copy per warp *)
  }

let lane_file w (r : Isa.reg) =
  let regs = S.regs w in
  let tbl =
    match r.Isa.file with
    | Isa.Pred -> regs.pregs
    | Isa.Vector | Isa.Scalar -> regs.vregs
  in
  match Hashtbl.find_opt tbl r.Isa.idx with
  | Some a -> a
  | None ->
    let a = Array.make (S.nlanes w) V.zero in
    Hashtbl.replace tbl r.Isa.idx a;
    a

let read_reg w (r : Isa.reg) lane =
  match r.Isa.file with
  | Isa.Scalar ->
    Option.value ~default:V.zero (Hashtbl.find_opt (S.regs w).sregs r.Isa.idx)
  | Isa.Vector | Isa.Pred -> (lane_file w r).(lane)

let set_reg w (r : Isa.reg) lane v =
  let v = V.truncate r.Isa.ty v in
  match r.Isa.file with
  | Isa.Scalar -> Hashtbl.replace (S.regs w).sregs r.Isa.idx v
  | Isa.Vector | Isa.Pred -> (lane_file w r).(lane) <- v

let launch w = (S.block_of w).S.launch

let param_value (prog : Lower.t) w idx =
  if idx < 0 || idx >= Array.length prog.Lower.params then
    invalid_arg (Printf.sprintf "Machine.Exec: bad parameter slot %d" idx);
  let name = prog.Lower.params.(idx) in
  match List.assoc_opt name (launch w).S.params with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Machine.Exec: unbound parameter %s" name)

let eval prog w lane (s : Isa.src) =
  match s with
  | Isa.Rsrc r -> read_reg w r lane
  | Isa.Imm i -> V.I i
  | Isa.Fimm f -> V.F f
  | Isa.Spec sp -> S.special w lane sp
  | Isa.Param idx -> param_value prog w idx
  | Isa.Loc off -> V.I (S.local_addr w lane off)

let addr_of prog w lane (a : Isa.addr) =
  Int64.add (V.to_int64 (eval prog w lane a.Isa.abase)) (Int64.of_int a.Isa.aoffset)

let last_active mask nlanes =
  let r = ref (-1) in
  for lane = 0 to nlanes - 1 do
    if mask land (1 lsl lane) <> 0 then r := lane
  done;
  !r

(* Write [compute lane] into [d] for every active lane — except when
   [d] is scalar: a scalar-file instruction issues {e once} for the
   warp, so the computation runs a single time (for the last active
   lane, whose sources a sound scalarization has proven warp-uniform).
   Running it per lane would re-read the freshly written destination on
   read-modify-write forms like [ADD SRn, SRn, 1] and increment once
   per lane instead of once per warp. *)
let exec_op w mask (d : Isa.reg) compute =
  match d.Isa.file with
  | Isa.Scalar ->
    let lane = last_active mask (S.nlanes w) in
    if lane >= 0 then set_reg w d lane (compute lane)
  | Isa.Vector | Isa.Pred -> S.iter_active w mask (fun l -> set_reg w d l (compute l))

let step (prog : Lower.t) w =
  S.step w prog.Lower.code ~exit:S.Exit (fun ~pc ~mask ins ->
    let eval = eval prog w and addr_of = addr_of prog w in
    let lane_mem space ty l a =
      S.lane_mem w ~pc ~lane:l ~width:(Ptx.Types.width_bytes ty) space (addr_of l a)
    in
    match ins with
    | Isa.Mov (ty, d, a) ->
      exec_op w mask d (fun l -> V.truncate ty (eval l a));
      S.Step
    | Isa.Binop (op, ty, d, a, b) ->
      exec_op w mask d (fun l -> V.binop op ty (eval l a) (eval l b));
      S.Step
    | Isa.Mad (ty, d, a, b, c) ->
      exec_op w mask d (fun l -> V.mad ty (eval l a) (eval l b) (eval l c));
      S.Step
    | Isa.Unop (op, ty, d, a) ->
      exec_op w mask d (fun l -> V.unop op ty (eval l a));
      S.Step
    | Isa.Cvt (dt, st, d, a) ->
      exec_op w mask d (fun l -> V.convert ~dst:dt ~src:st (eval l a));
      S.Step
    | Isa.Setp (c, ty, d, a, b) ->
      exec_op w mask d (fun l ->
        let r = V.compare_values c ty (eval l a) (eval l b) in
        V.I (if r then 1L else 0L));
      S.Step
    | Isa.Selp (ty, d, a, b, p) ->
      exec_op w mask d (fun l ->
        let pv = read_reg w p l in
        V.truncate ty (if V.to_bool pv then eval l a else eval l b));
      S.Step
    | Isa.Ld (Ptx.Types.Param, ty, d, a) ->
      (match a.Isa.abase with
       | Isa.Param idx ->
         exec_op w mask d (fun _ -> V.truncate ty (param_value prog w idx))
       | Isa.Rsrc _ | Isa.Imm _ | Isa.Fimm _ | Isa.Spec _ | Isa.Loc _ ->
         invalid_arg "Machine.Exec: ld.param requires a constant-bank base");
      S.Step
    | Isa.Ld (Ptx.Types.Const, ty, d, a) ->
      exec_op w mask d (fun l ->
        Gpusim.Memory.read (launch w).S.global (addr_of l a) ty);
      S.Step
    | Isa.Ld
        (((Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local) as sp), ty, d, a) ->
      exec_op w mask d (fun l ->
        match lane_mem sp ty l a with
        | Some (m, ad) -> Gpusim.Memory.read m ad ty
        | None -> V.truncate ty V.zero);
      S.Step
    | Isa.Ld ((Ptx.Types.Reg as sp), _, _, _) ->
      invalid_arg
        (Printf.sprintf "Machine.Exec: ld.%s unsupported"
           (Ptx.Types.space_to_string sp))
    | Isa.St
        (((Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local) as sp), ty, a, v) ->
      S.iter_active w mask (fun l ->
        match lane_mem sp ty l a with
        | Some (m, ad) -> Gpusim.Memory.write m ad ty (eval l v)
        | None -> ());
      S.Step
    | Isa.St ((Ptx.Types.Reg | Ptx.Types.Param | Ptx.Types.Const), _, _, _)
      -> invalid_arg "Machine.Exec: unsupported store space"
    | Isa.Bra t ->
      S.jump w t;
      S.Step
    | Isa.Bra_pred (p, sense, target) ->
      S.branch w ~pc ~mask ~target (fun lane -> V.to_bool (read_reg w p lane) = sense);
      S.Step
    | Isa.Bar -> S.Barrier
    | Isa.Exit ->
      S.exit_warp w;
      S.Exit)

let run ?max_warp_instrs (prog : Lower.t) (l : Gpusim.Launch.t) =
  let lctx = S.launch_ctx ~image:prog.Lower.image l in
  let step = S.budget max_warp_instrs (step prog) in
  let regs () =
    { vregs = Hashtbl.create 64; pregs = Hashtbl.create 8; sregs = Hashtbl.create 16 }
  in
  for ctaid = 0 to l.Gpusim.Launch.num_blocks - 1 do
    let _block, warps =
      S.make_block lctx ~ctaid ~warp_size:l.Gpusim.Launch.warp_size regs
    in
    S.run_block ~is_done:S.is_done ~warps ~step
  done
