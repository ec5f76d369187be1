(* SIMT interpreter, allocation-free fast path.

   Executes the predecoded form ({!Dcode}) built once per {!Image}. A
   warp's registers live in one flat [float array] of raw 64-bit
   patterns, [nlanes] entries per slot, plus a per-slot lane bitmask
   carrying the I/F constructor tag (observable only through predicate
   reads, addresses and integer-from-float conversions — see {!Value}).
   Behind the register slots sit [nscratch] scratch slots, where a
   non-register operand (immediate, special register, parameter, local
   symbol) is spread over the lanes before use.

   Each instruction runs as warp-wide lane loops. [step] decodes the
   opcode, the types and the operand kinds once, then passes whole
   slots to {!Value}'s warp-wide kernels (arithmetic, conversions,
   comparisons, predicates), {!Image}'s (local addresses) and
   {!Memory}'s (loads and stores): each is one loop over the lanes with
   its arithmetic in the same compilation unit. The dev profile builds
   every library with [-opaque], so nothing inlines across modules and
   each call boxes the int64 and float values it passes; hence the
   rule: no per-lane call across a module boundary. The one exception
   is the sanitizer's probe ({!Sancheck.check}), armed only outside
   recording.

   The reconvergence stack is a trio of growable int arrays, and a
   memory instruction's lane addresses go into a reusable scratch
   buffer that {!Emulator} copies out with one blit. The steady-state
   [step] touches only preallocated state; the returned [exec] blocks
   are preallocated per pc at predecode time.

   Semantics are defined by the reference interpreter in [test/support]
   (the original boxed interpreter); the differential tests keep the two
   in lockstep agreement, instruction by instruction and over random
   kernels. *)

type launch_ctx = Simt.launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
  }

type block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  ; param_bits : int64 array (* per Dcode param index: raw value bits *)
  ; param_isf : bool array (* float-tagged? *)
  ; param_ok : bool array (* bound in the launch? (checked at use) *)
  }

type warp =
  { block : block_ctx
  ; wid : int
  ; base_tid : int
  ; nlanes : int
  ; code : Dcode.t
  ; rf : float array (* (nslots + nscratch) × nlanes raw 64-bit patterns *)
  ; scratch : int (* offset in [rf] of scratch slot 0 *)
  ; ftag : int array (* per register slot: lane bitmask of float tags *)
  ; mutable stk_pc : int array (* SIMT stack, entries 0..sp *)
  ; mutable stk_reconv : int array
  ; mutable stk_mask : int array
  ; mutable sp : int
  ; addr_buf : float array (* lane-address scratch (bit patterns) *)
  ; addr_lane : int array
  ; mutable addr_n : int
  ; mutable done_ : bool
  }

let full_mask n = (1 lsl n) - 1

(* scratch slots: one per operand of the widest instruction (mad) *)
let nscratch = 3

let make_block launch ~ctaid ~warp_size =
  if launch.block_size <= 0 || launch.block_size mod warp_size <> 0 then
    invalid_arg "Interp.make_block: block size must be a multiple of warp size";
  let nwarps = launch.block_size / warp_size in
  let code = launch.image.Image.code in
  let np = Dcode.num_params code in
  let param_bits = Array.make np 0L in
  let param_isf = Array.make np false in
  let param_ok = Array.make np false in
  for i = 0 to np - 1 do
    match List.assoc_opt (Dcode.param_name code i) launch.params with
    | Some v ->
      param_bits.(i) <- Value.to_bits v;
      param_isf.(i) <- Value.is_f v;
      param_ok.(i) <- true
    | None -> ()
  done;
  let block =
    { launch
    ; ctaid
    ; shared = Memory.create ()
    ; nwarps
    ; param_bits
    ; param_isf
    ; param_ok
    }
  in
  let nslots = Dcode.num_slots code in
  let warps =
    List.init nwarps (fun w ->
      let stk_pc = Array.make 8 0 in
      let stk_reconv = Array.make 8 0 in
      let stk_mask = Array.make 8 0 in
      stk_reconv.(0) <- -1;
      stk_mask.(0) <- full_mask warp_size;
      { block
      ; wid = w
      ; base_tid = w * warp_size
      ; nlanes = warp_size
      ; code
      ; rf = Array.make ((nslots + nscratch) * warp_size) 0.0
      ; scratch = nslots * warp_size
      ; ftag = Array.make (max 1 nslots) 0
      ; stk_pc
      ; stk_reconv
      ; stk_mask
      ; sp = 0
      ; addr_buf = Array.make warp_size 0.0
      ; addr_lane = Array.make warp_size 0
      ; addr_n = 0
      ; done_ = false
      })
  in
  (block, warps)

let is_done w = w.done_

let normalize w =
  while
    w.sp > 0
    && Array.unsafe_get w.stk_pc w.sp = Array.unsafe_get w.stk_reconv w.sp
  do
    w.sp <- w.sp - 1
  done

let pc w = w.stk_pc.(w.sp)
let active_mask w = w.stk_mask.(w.sp)
let block_of w = w.block
let warp_id w = w.wid

let instrs w = w.block.launch.image.Image.flow.Cfg.Flow.instrs

let peek w =
  if w.done_ then None
  else begin
    normalize w;
    let p = pc w in
    let arr = instrs w in
    if p >= Array.length arr then None else Some arr.(p)
  end

let fetch w =
  if w.done_ then -1
  else begin
    normalize w;
    let p = pc w in
    if p >= Array.length w.code.Dcode.code then -1 else p
  end

(* ------------------------------------------------------------------ *)
(* Register file *)

let[@inline] get w i = Int64.bits_of_float (Array.unsafe_get w.rf i)
let[@inline] active mask l = mask land (1 lsl l) <> 0

let read_reg_values w r =
  match Dcode.slot_of_reg w.code r with
  | None -> Array.make w.nlanes Value.zero
  | Some s ->
    Array.init w.nlanes (fun l ->
      let bits = get w ((s * w.nlanes) + l) in
      if active w.ftag.(s) l then Value.F (Int64.float_of_bits bits)
      else Value.I bits)

(* ------------------------------------------------------------------ *)
(* Operands *)

let global_tid w lane =
  (w.block.ctaid * w.block.launch.block_size) + w.base_tid + lane

let special_value w lane s =
  match s with
  | Ptx.Reg.Tid_x -> w.base_tid + lane
  | Ptx.Reg.Tid_y -> 0
  | Ptx.Reg.Ctaid_x -> w.block.ctaid
  | Ptx.Reg.Ctaid_y -> 0
  | Ptx.Reg.Ntid_x -> w.block.launch.block_size
  | Ptx.Reg.Ntid_y -> 1
  | Ptx.Reg.Nctaid_x -> w.block.launch.num_blocks
  | Ptx.Reg.Nctaid_y -> 1
  | Ptx.Reg.Laneid -> lane
  | Ptx.Reg.Warpid -> w.wid

let param_bits_checked w i =
  if Array.unsafe_get w.block.param_ok i then
    Array.unsafe_get w.block.param_bits i
  else
    invalid_arg
      (Printf.sprintf "Interp: unbound parameter %s"
         (Dcode.param_name w.code i))

let[@inline] scratch w k = w.scratch + (k * w.nlanes)

let[@inline] fill w o mask (x : float) =
  for l = 0 to w.nlanes - 1 do
    if active mask l then Array.unsafe_set w.rf (o + l) x
  done

(* Offset in [w.rf] of operand [op]'s lane values on the lanes of
   [mask]: a register slot in place, any other operand spread into
   scratch slot [k] first. An operand that cannot be evaluated raises
   only under a non-empty mask. *)
let src w k mask (op : Dcode.dop) =
  if mask = 0 then scratch w k
  else
    match op with
    | Dcode.Dreg s -> s * w.nlanes
    | Dcode.Dimm i | Dcode.Dfimm i ->
      let o = scratch w k in
      fill w o mask (Int64.float_of_bits i);
      o
    | Dcode.Dparam i ->
      let o = scratch w k in
      fill w o mask (Int64.float_of_bits (param_bits_checked w i));
      o
    | Dcode.Dspecial s ->
      let o = scratch w k in
      for l = 0 to w.nlanes - 1 do
        if active mask l then
          Array.unsafe_set w.rf (o + l)
            (Int64.float_of_bits (Int64.of_int (special_value w l s)))
      done;
      o
    | Dcode.Dlocal off ->
      let o = scratch w k in
      Image.local_addr_lanes w.block.launch.image ~global_tid0:(global_tid w 0)
        ~sym_offset:off ~mask ~n:w.nlanes w.rf o;
      o
    | Dcode.Dbad msg -> invalid_arg msg

(* the lanes on which [op]'s value is float-tagged *)
let fmask w (op : Dcode.dop) =
  match op with
  | Dcode.Dreg s -> Array.unsafe_get w.ftag s
  | Dcode.Dfimm _ -> -1
  | Dcode.Dparam i -> if Array.unsafe_get w.block.param_isf i then -1 else 0
  | Dcode.Dimm _ | Dcode.Dspecial _ | Dcode.Dlocal _ | Dcode.Dbad _ -> 0

(* Lanes [m] of slot [dst] hold a [ty] result: truncate them to the
   register's type [dty] (a no-op when the two agree) and set their
   float tags. *)
let write_back w ~ty ~dty ~dst m =
  let o = dst * w.nlanes in
  if not (Ptx.Types.equal_scalar ty dty) then
    Value.truncate_lanes dty
      ~fmask:(if Ptx.Types.is_float ty then m else 0)
      ~mask:m ~n:w.nlanes w.rf o w.rf o;
  let t = Array.unsafe_get w.ftag dst in
  Array.unsafe_set w.ftag dst
    (if Ptx.Types.is_float dty then t lor m else t land lnot m)

(* ------------------------------------------------------------------ *)
(* Memory *)

let[@inline] record_addr w lane a =
  let n = w.addr_n in
  Array.unsafe_set w.addr_lane n lane;
  Array.unsafe_set w.addr_buf n (Int64.float_of_bits a);
  w.addr_n <- n + 1

(* The lane addresses [base + off] of an access of [width] bytes go into
   the address buffer, local ones remapped into the interleaved layout;
   returns the lanes that access. Those are the lanes of [mask], less
   any the armed sanitizer suppresses. Its probes mirror the reference
   interpreter's: shared addresses are checked as they are, local ones
   on the naive offset into the thread's own frame (before
   {!Image.remap_local} could fault). *)
let addresses w ~pc ~mask ~space ~width base off =
  let n = w.nlanes in
  let bo = src w 0 mask base in
  let fm = fmask w base land mask in
  let bo =
    if fm = 0 then bo
    else begin
      let o = scratch w 0 in
      Value.to_int64_lanes ~fmask:fm ~mask ~n w.rf o w.rf bo;
      o
    end
  in
  let off = Int64.of_int off in
  let image = w.block.launch.image in
  w.addr_n <- 0;
  let eff =
    match (w.block.launch.san, space) with
    | None, _
    | ( Some _
      , ( Ptx.Types.Global | Ptx.Types.Const | Ptx.Types.Param
        | Ptx.Types.Reg ) ) ->
      for l = 0 to n - 1 do
        if active mask l then record_addr w l (Int64.add (get w (bo + l)) off)
      done;
      mask
    | Some rt, Ptx.Types.Shared ->
      let eff = ref 0 in
      for l = 0 to n - 1 do
        if active mask l then begin
          let a = Int64.add (get w (bo + l)) off in
          if Sancheck.check rt ~pc ~lane:l ~tid:(w.base_tid + l) ~width ~rel:a
          then begin
            record_addr w l a;
            eff := !eff lor (1 lsl l)
          end
        end
      done;
      !eff
    | Some rt, Ptx.Types.Local ->
      let eff = ref 0 in
      for l = 0 to n - 1 do
        if active mask l then begin
          let a = Int64.add (get w (bo + l)) off in
          let frame =
            Int64.add Image.local_base
              (Int64.of_int (global_tid w l * image.Image.local_frame_bytes))
          in
          if
            Sancheck.check rt ~pc ~lane:l ~tid:(w.base_tid + l) ~width
              ~rel:(Int64.sub a frame)
          then begin
            record_addr w l a;
            eff := !eff lor (1 lsl l)
          end
        end
      done;
      !eff
  in
  (match space with
   | Ptx.Types.Local ->
     Image.remap_local_lanes image ~global_tid0:(global_tid w 0)
       ~addrs:w.addr_buf ~lanes:w.addr_lane ~n:w.addr_n
   | Ptx.Types.Global | Ptx.Types.Shared | Ptx.Types.Const | Ptx.Types.Param
   | Ptx.Types.Reg ->
     ());
  eff

let memory_of w (space : Ptx.Types.space) =
  match space with
  | Ptx.Types.Shared -> w.block.shared
  | Ptx.Types.Global | Ptx.Types.Const | Ptx.Types.Local | Ptx.Types.Param
  | Ptx.Types.Reg ->
    w.block.launch.global

let mem_count w = w.addr_n
let mem_addrs w = w.addr_buf
let mem_addr w i = Int64.bits_of_float w.addr_buf.(i)
let mem_lane w i = w.addr_lane.(i)

(* ------------------------------------------------------------------ *)
(* Execution *)

type exec = Dcode.exec =
  | E_alu of Ptx.Instr.op_class
  | E_mem of
      { space : Ptx.Types.space
      ; write : bool
      ; width : int
      }
  | E_barrier
  | E_exit

let popcount = Dcode.popcount

let ensure_stack w n =
  let cap = Array.length w.stk_pc in
  if n > cap then begin
    let ncap = max (2 * cap) n in
    let grow a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    w.stk_pc <- grow w.stk_pc;
    w.stk_reconv <- grow w.stk_reconv;
    w.stk_mask <- grow w.stk_mask
  end

let step w =
  if w.done_ then invalid_arg "Interp.step: warp already done";
  normalize w;
  let this_pc = Array.unsafe_get w.stk_pc w.sp in
  let code = w.code in
  if this_pc >= Array.length code.Dcode.code then begin
    w.done_ <- true;
    Dcode.E_exit
  end
  else begin
    let mask = Array.unsafe_get w.stk_mask w.sp in
    Array.unsafe_set w.stk_pc w.sp (this_pc + 1);
    let n = w.nlanes in
    let rf = w.rf in
    (match Array.unsafe_get code.Dcode.code this_pc with
     | Dcode.DMov { ty; dst; dty; a } ->
       let ao = src w 0 mask a in
       Value.truncate_lanes ty ~fmask:(fmask w a) ~mask ~n rf (dst * n) rf ao;
       write_back w ~ty ~dty ~dst mask
     | Dcode.DBinop { op; ty; dst; dty; a; b } ->
       let ao = src w 0 mask a in
       let bo = src w 1 mask b in
       Value.binop_lanes op ty ~mask ~n rf (dst * n) rf ao rf bo;
       write_back w ~ty ~dty ~dst mask
     | Dcode.DMad { ty; dst; dty; a; b; c } ->
       let ao = src w 0 mask a in
       let bo = src w 1 mask b in
       let co = src w 2 mask c in
       Value.mad_lanes ty ~mask ~n rf (dst * n) rf ao rf bo rf co;
       write_back w ~ty ~dty ~dst mask
     | Dcode.DUnop { op; ty; dst; dty; a } ->
       let ao = src w 0 mask a in
       Value.unop_lanes op ty ~mask ~n rf (dst * n) rf ao;
       write_back w ~ty ~dty ~dst mask
     | Dcode.DCvt { dt; st; dst; dty; a } ->
       let ao = src w 0 mask a in
       Value.convert_lanes ~dst:dt ~src:st ~mask ~n rf (dst * n) rf ao;
       write_back w ~ty:dt ~dty ~dst mask
     | Dcode.DSetp { cmp; ty; dst; dty; a; b } ->
       let ao = src w 0 mask a in
       let bo = src w 1 mask b in
       let t = Value.compare_lanes cmp ty ~mask ~n rf ao rf bo in
       let o = dst * n in
       fill w o t (Int64.float_of_bits 1L);
       fill w o (mask land lnot t) 0.0;
       write_back w ~ty:Ptx.Types.Pred ~dty ~dst mask
     | Dcode.DSelp { ty; dst; dty; a; b; p } ->
       (* only the selected operand is evaluated, as in the reference
          interpreter *)
       let t =
         Value.true_lanes ~fmask:(Array.unsafe_get w.ftag p) ~mask ~n rf (p * n)
       in
       let f = mask land lnot t in
       let ao = src w 0 t a in
       let bo = src w 1 f b in
       let o = dst * n in
       Value.truncate_lanes ty ~fmask:(fmask w a) ~mask:t ~n rf o rf ao;
       Value.truncate_lanes ty ~fmask:(fmask w b) ~mask:f ~n rf o rf bo;
       write_back w ~ty ~dty ~dst mask
     | Dcode.DLd_param { ty; dst; dty; pidx } ->
       if mask <> 0 then begin
         let bits =
           Value.truncate_bits ty
             ~isf:(Array.unsafe_get w.block.param_isf pidx)
             (param_bits_checked w pidx)
         in
         fill w (dst * n) mask (Int64.float_of_bits bits);
         write_back w ~ty ~dty ~dst mask
       end
     | Dcode.DLd { space; ty; dst; dty; base; off } ->
       let eff =
         addresses w ~pc:this_pc ~mask ~space
           ~width:(Ptx.Types.width_bytes ty) base off
       in
       let o = dst * n in
       let fm =
         Memory.load_lanes (memory_of w space) ~addrs:w.addr_buf
           ~lanes:w.addr_lane ~n:w.addr_n rf o
       in
       Value.truncate_lanes ty ~fmask:fm ~mask:eff ~n rf o rf o;
       write_back w ~ty ~dty ~dst eff;
       (* constant loads are not memory traffic *)
       (match space with
        | Ptx.Types.Const -> w.addr_n <- 0
        | Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local
        | Ptx.Types.Param | Ptx.Types.Reg ->
          ())
     | Dcode.DSt { space; ty; base; off; src = v } ->
       let eff =
         addresses w ~pc:this_pc ~mask ~space
           ~width:(Ptx.Types.width_bytes ty) base off
       in
       let vo = src w 1 eff v in
       let o = scratch w 1 in
       Value.truncate_lanes ty ~fmask:(fmask w v) ~mask:eff ~n rf o rf vo;
       Memory.store_lanes (memory_of w space) ~isf:(Ptx.Types.is_float ty)
         ~addrs:w.addr_buf ~lanes:w.addr_lane ~n:w.addr_n rf o
     | Dcode.DBra target -> Array.unsafe_set w.stk_pc w.sp target
     | Dcode.DBra_pred { p; sense; target; reconv } ->
       let t =
         Value.true_lanes ~fmask:(Array.unsafe_get w.ftag p) ~mask ~n rf (p * n)
       in
       let taken = if sense then t else mask land lnot t in
       let fall = mask land lnot taken in
       if taken = 0 then () (* next pc already this_pc + 1 *)
       else if fall = 0 then Array.unsafe_set w.stk_pc w.sp target
       else begin
         Array.unsafe_set w.stk_pc w.sp reconv;
         ensure_stack w (w.sp + 3);
         let s = w.sp + 1 in
         w.stk_pc.(s) <- this_pc + 1;
         w.stk_reconv.(s) <- reconv;
         w.stk_mask.(s) <- fall;
         w.stk_pc.(s + 1) <- target;
         w.stk_reconv.(s + 1) <- reconv;
         w.stk_mask.(s + 1) <- taken;
         w.sp <- s + 1
       end
     | Dcode.DBar -> ()
     | Dcode.DRet ->
       if w.sp > 0 then failwith "Interp: divergent ret is not supported";
       w.done_ <- true
     | Dcode.DBad msg -> invalid_arg msg);
    normalize w;
    Array.unsafe_get code.Dcode.exec_of this_pc
  end
