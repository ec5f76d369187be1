(* SIMT interpreter, allocation-free fast path.

   Executes the predecoded form ({!Dcode}) built once per {!Image}:
   registers live in a flat per-warp [float array] of raw 64-bit
   patterns (plus a per-slot lane bitmask carrying the I/F constructor
   tag, which is observable only through predicate reads and
   integer-from-float conversions — see {!Value}), the reconvergence
   stack is a trio of growable int arrays, and memory-instruction lane
   addresses go into a reusable scratch buffer exposed through
   accessors instead of per-step lists. The steady-state [step] touches
   only preallocated state; the returned [exec] blocks are preallocated
   per pc at predecode time.

   Semantics are defined by {!Refinterp} (the original boxed
   interpreter); the differential property tests keep the two in
   lockstep agreement. *)

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
  ; rf : float array (* nslots × nlanes raw 64-bit patterns *)
  ; ftag : int array (* per slot: lane bitmask of float tags *)
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
      ; rf = Array.make (max 1 (nslots * warp_size)) 0.0
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

let[@inline] rf_get w slot lane =
  Int64.bits_of_float (Array.unsafe_get w.rf ((slot * w.nlanes) + lane))

let[@inline] rf_isf w slot lane =
  Array.unsafe_get w.ftag slot land (1 lsl lane) <> 0

let[@inline] rf_set w slot lane ~isf bits =
  Array.unsafe_set w.rf ((slot * w.nlanes) + lane) (Int64.float_of_bits bits);
  let t = Array.unsafe_get w.ftag slot in
  let b = 1 lsl lane in
  Array.unsafe_set w.ftag slot (if isf then t lor b else t land lnot b)

let read_reg_values w r =
  match Dcode.slot_of_reg w.code r with
  | None -> Array.make w.nlanes Value.zero
  | Some s ->
    Array.init w.nlanes (fun l ->
      let bits = rf_get w s l in
      if rf_isf w s l then Value.F (Int64.float_of_bits bits) else Value.I bits)

(* ------------------------------------------------------------------ *)
(* Operand evaluation *)

let global_tid w lane =
  (w.block.ctaid * w.block.launch.block_size) + w.base_tid + lane

let special_bits w lane s =
  let v =
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
  in
  Int64.of_int v

let param_bits_checked w i =
  if Array.unsafe_get w.block.param_ok i then
    Array.unsafe_get w.block.param_bits i
  else
    invalid_arg
      (Printf.sprintf "Interp: unbound parameter %s"
         (Dcode.param_name w.code i))

let eval_bits w lane (op : Dcode.dop) =
  match op with
  | Dcode.Dreg s -> rf_get w s lane
  | Dcode.Dimm i | Dcode.Dfimm i -> i
  | Dcode.Dspecial s -> special_bits w lane s
  | Dcode.Dlocal off ->
    Image.local_addr w.block.launch.image ~global_tid:(global_tid w lane)
      ~sym_offset:off
  | Dcode.Dparam i -> param_bits_checked w i
  | Dcode.Dbad msg -> invalid_arg msg

let eval_isf w lane (op : Dcode.dop) =
  match op with
  | Dcode.Dreg s -> rf_isf w s lane
  | Dcode.Dfimm _ -> true
  | Dcode.Dparam i ->
    ignore (param_bits_checked w i);
    Array.unsafe_get w.block.param_isf i
  | Dcode.Dimm _ | Dcode.Dspecial _ | Dcode.Dlocal _ -> false
  | Dcode.Dbad msg -> invalid_arg msg

(* ------------------------------------------------------------------ *)
(* Memory *)

let mem_read_bits mem a ty =
  let bits = Memory.load_bits mem a in
  let isf =
    match ty with Ptx.Types.Pred -> Memory.load_isf mem a | _ -> false
  in
  Value.truncate_bits ty ~isf bits

(* Sanitizer probes, mirroring {!Refinterp}: shared addresses are
   checked as-is, local ones on the naive pre-interleave offset into
   the thread's own frame (before {!Image.remap_local} could fault). *)

let[@inline] san_shared w ~pc ~lane ~width a =
  match w.block.launch.san with
  | None -> true
  | Some rt ->
    Sancheck.check rt ~pc ~lane ~tid:(w.base_tid + lane) ~width ~rel:a

let[@inline] san_local w ~pc ~lane ~width naive =
  match w.block.launch.san with
  | None -> true
  | Some rt ->
    let image = w.block.launch.image in
    let rel =
      Int64.sub naive
        (Int64.add Image.local_base
           (Int64.of_int (global_tid w lane * image.Image.local_frame_bytes)))
    in
    Sancheck.check rt ~pc ~lane ~tid:(w.base_tid + lane) ~width ~rel

let[@inline] record_addr w lane a =
  let n = w.addr_n in
  Array.unsafe_set w.addr_lane n lane;
  Array.unsafe_set w.addr_buf n (Int64.float_of_bits a);
  w.addr_n <- n + 1

let mem_count w = w.addr_n
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
    let nlanes = w.nlanes in
    (match Array.unsafe_get code.Dcode.code this_pc with
     | Dcode.DMov { ty; dst; dty; a } ->
       let visf = Ptx.Types.is_float ty in
       let disf = Ptx.Types.is_float dty in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then
           let bits =
             Value.truncate_bits ty ~isf:(eval_isf w l a) (eval_bits w l a)
           in
           rf_set w dst l ~isf:disf (Value.truncate_bits dty ~isf:visf bits)
       done
     | Dcode.DBinop { op; ty; dst; dty; a; b } ->
       let visf = Ptx.Types.is_float ty in
       let disf = Ptx.Types.is_float dty in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then
           let r = Value.binop_bits op ty (eval_bits w l a) (eval_bits w l b) in
           rf_set w dst l ~isf:disf (Value.truncate_bits dty ~isf:visf r)
       done
     | Dcode.DMad { ty; dst; dty; a; b; c } ->
       let visf = Ptx.Types.is_float ty in
       let disf = Ptx.Types.is_float dty in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then
           let r =
             Value.mad_bits ty (eval_bits w l a) (eval_bits w l b)
               (eval_bits w l c)
           in
           rf_set w dst l ~isf:disf (Value.truncate_bits dty ~isf:visf r)
       done
     | Dcode.DUnop { op; ty; dst; dty; a } ->
       let visf = Ptx.Types.is_float ty in
       let disf = Ptx.Types.is_float dty in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then
           let r = Value.unop_bits op ty (eval_bits w l a) in
           rf_set w dst l ~isf:disf (Value.truncate_bits dty ~isf:visf r)
       done
     | Dcode.DCvt { dt; st; dst; dty; a } ->
       let visf = Ptx.Types.is_float dt in
       let disf = Ptx.Types.is_float dty in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then
           let r = Value.convert_bits ~dst:dt ~src:st (eval_bits w l a) in
           rf_set w dst l ~isf:disf (Value.truncate_bits dty ~isf:visf r)
       done
     | Dcode.DSetp { cmp; ty; dst; dty; a; b } ->
       let disf = Ptx.Types.is_float dty in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then
           let r =
             Value.compare_bits cmp ty (eval_bits w l a) (eval_bits w l b)
           in
           rf_set w dst l ~isf:disf
             (Value.truncate_bits dty ~isf:false (if r then 1L else 0L))
       done
     | Dcode.DSelp { ty; dst; dty; a; b; p } ->
       let visf = Ptx.Types.is_float ty in
       let disf = Ptx.Types.is_float dty in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then begin
           (* only the selected operand is evaluated, as in Refinterp *)
           let src =
             if Value.to_bool_bits ~isf:(rf_isf w p l) (rf_get w p l) then a
             else b
           in
           let bits =
             Value.truncate_bits ty ~isf:(eval_isf w l src) (eval_bits w l src)
           in
           rf_set w dst l ~isf:disf (Value.truncate_bits dty ~isf:visf bits)
         end
       done
     | Dcode.DLd_param { ty; dst; dty; pidx } ->
       if mask <> 0 then begin
         let visf = Ptx.Types.is_float ty in
         let disf = Ptx.Types.is_float dty in
         let pb = param_bits_checked w pidx in
         let pisf = Array.unsafe_get w.block.param_isf pidx in
         let bits =
           Value.truncate_bits dty ~isf:visf
             (Value.truncate_bits ty ~isf:pisf pb)
         in
         for l = 0 to nlanes - 1 do
           if mask land (1 lsl l) <> 0 then rf_set w dst l ~isf:disf bits
         done
       end
     | Dcode.DLd { space; ty; dst; dty; base; off } ->
       let visf = Ptx.Types.is_float ty in
       let disf = Ptx.Types.is_float dty in
       let image = w.block.launch.image in
       let off64 = Int64.of_int off in
       let width = Ptx.Types.width_bytes ty in
       w.addr_n <- 0;
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then begin
           let a =
             Int64.add
               (Value.to_int64_bits ~isf:(eval_isf w l base)
                  (eval_bits w l base))
               off64
           in
           let finish bits =
             rf_set w dst l ~isf:disf (Value.truncate_bits dty ~isf:visf bits)
           in
           match space with
           | Ptx.Types.Const -> finish (mem_read_bits w.block.launch.global a ty)
           | Ptx.Types.Shared ->
             if san_shared w ~pc:this_pc ~lane:l ~width a then begin
               record_addr w l a;
               finish (mem_read_bits w.block.shared a ty)
             end
           | Ptx.Types.Global ->
             record_addr w l a;
             finish (mem_read_bits w.block.launch.global a ty)
           | Ptx.Types.Local | Ptx.Types.Reg | Ptx.Types.Param ->
             (* only Local reaches here (see Dcode.build) *)
             if san_local w ~pc:this_pc ~lane:l ~width a then begin
               let a = Image.remap_local image ~global_tid:(global_tid w l) a in
               record_addr w l a;
               finish (mem_read_bits w.block.launch.global a ty)
             end
         end
       done
     | Dcode.DSt { space; ty; base; off; src } ->
       let sisf = Ptx.Types.is_float ty in
       let image = w.block.launch.image in
       let off64 = Int64.of_int off in
       let width = Ptx.Types.width_bytes ty in
       w.addr_n <- 0;
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then begin
           let a =
             Int64.add
               (Value.to_int64_bits ~isf:(eval_isf w l base)
                  (eval_bits w l base))
               off64
           in
           let store mem a =
             record_addr w l a;
             Memory.store_bits mem a ~isf:sisf
               (Value.truncate_bits ty ~isf:(eval_isf w l src)
                  (eval_bits w l src))
           in
           match space with
           | Ptx.Types.Shared ->
             if san_shared w ~pc:this_pc ~lane:l ~width a then
               store w.block.shared a
           | Ptx.Types.Local ->
             if san_local w ~pc:this_pc ~lane:l ~width a then
               store w.block.launch.global
                 (Image.remap_local image ~global_tid:(global_tid w l) a)
           | Ptx.Types.Global | Ptx.Types.Reg | Ptx.Types.Param
           | Ptx.Types.Const ->
             (* only Global reaches here (see Dcode.build) *)
             store w.block.launch.global a
         end
       done
     | Dcode.DBra target -> Array.unsafe_set w.stk_pc w.sp target
     | Dcode.DBra_pred { p; sense; target; reconv } ->
       let taken = ref 0 in
       for l = 0 to nlanes - 1 do
         if mask land (1 lsl l) <> 0 then
           if Value.to_bool_bits ~isf:(rf_isf w p l) (rf_get w p l) = sense
           then taken := !taken lor (1 lsl l)
       done;
       let taken = !taken in
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
