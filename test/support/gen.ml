module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types

(* A random kernel is driven by an opcode array: each entry picks an
   operation and its operands from the pools of already-defined
   registers, so any array yields a valid kernel (good shrinking). *)

type plan =
  { ops : int array
  ; loop : bool
  ; branch : bool
  ; shared : bool
  ; wide : bool
  }

let build_from_plan plan =
  let b = B.create "qcheck_kernel" in
  let inp = B.param b "inp" T.U64 in
  let out = B.param b "out" T.U64 in
  let n = B.param b "n" T.U32 in
  let tid = B.global_tid_x b in
  let nval = B.ld_param b T.U32 n in
  let inp64 = B.ld_param b T.U64 inp in
  let out64 = B.ld_param b T.U64 out in
  let u32s = ref [ tid; nval ] in
  let f32s = ref [ B.mov b T.F32 (B.fimm 1.5) ] in
  let pick pool i = List.nth pool (i mod List.length pool) in
  (* the wide plan's pools: signed 32-bit (negative from the start),
     64-bit integer (past 2^32) and f64 values *)
  let s32s, u64s, f64s =
    if plan.wide then begin
      let s = B.cvt b T.S32 T.U32 (B.reg tid) in
      let neg = B.sub b T.S32 (B.reg s) (B.imm 37) in
      let d = B.cvt b T.U64 T.U32 (B.reg tid) in
      let big = B.mad b T.U64 (B.reg d) (B.imm 0x1_0000_0001) (B.imm 0x7FFF_FFFF) in
      let f = B.cvt b T.F64 T.S32 (B.reg neg) in
      (ref [ neg; s ], ref [ big; d ], ref [ B.mul b T.F64 (B.reg f) (B.fimm 0.75) ])
    end
    else (ref [], ref [], ref [])
  in
  let load_bounded idx_reg =
    let idx = B.binop b I.And T.U32 (B.reg idx_reg) (B.imm 1023) in
    let bytes = B.mul b T.U32 (B.reg idx) (B.imm 4) in
    let o64 = B.cvt b T.U64 T.U32 (B.reg bytes) in
    let addr = B.add b T.U64 (B.reg inp64) (B.reg o64) in
    B.ld b T.Global T.F32 (B.reg addr) 0
  in
  let apply_op code =
    let nsel = if plan.wide then 14 else 8 in
    let sel = code mod nsel in
    let x = code / nsel in
    match sel with
    | 0 ->
      let ops = [| I.Add; I.Sub; I.Mul_lo; I.Min; I.Max; I.And; I.Or; I.Xor |] in
      let r =
        B.binop b ops.(x mod 8) T.U32
          (B.reg (pick !u32s (x / 8)))
          (B.reg (pick !u32s (x / 64)))
      in
      u32s := r :: !u32s
    | 1 ->
      let r = B.binop b I.Add T.U32 (B.reg (pick !u32s x)) (B.imm ((x mod 13) + 1)) in
      u32s := r :: !u32s
    | 2 ->
      let ops = [| I.Add; I.Sub; I.Mul_lo; I.Min; I.Max |] in
      let r =
        B.binop b ops.(x mod 5) T.F32
          (B.reg (pick !f32s (x / 5)))
          (B.reg (pick !f32s (x / 40)))
      in
      f32s := r :: !f32s
    | 3 ->
      let r =
        B.mad b T.F32
          (B.reg (pick !f32s x))
          (B.fimm 0.5)
          (B.reg (pick !f32s (x / 7)))
      in
      f32s := r :: !f32s
    | 4 ->
      let a = B.unop b I.Abs T.F32 (B.reg (pick !f32s x)) in
      let a1 = B.add b T.F32 (B.reg a) (B.fimm 1.0) in
      let r = B.unop b I.Sqrt T.F32 (B.reg a1) in
      f32s := r :: !f32s
    | 5 -> f32s := load_bounded (pick !u32s x) :: !f32s
    | 6 ->
      let r = B.cvt b T.F32 T.U32 (B.reg (pick !u32s x)) in
      f32s := r :: !f32s
    | 7 ->
      let p =
        B.setp b I.Lt T.U32 (B.reg (pick !u32s x)) (B.reg (pick !u32s (x / 3)))
      in
      let r =
        B.selp b T.F32
          (B.reg (pick !f32s x))
          (B.reg (pick !f32s (x / 5)))
          p
      in
      f32s := r :: !f32s
    | 8 ->
      let ops =
        [| I.Add; I.Sub; I.Mul_lo; I.Div; I.Rem; I.Min; I.Max; I.Shl; I.Shr |]
      in
      let r =
        B.binop b ops.(x mod 9) T.S32
          (B.reg (pick !s32s (x / 9)))
          (B.reg (pick !s32s (x / 81)))
      in
      s32s := r :: !s32s
    | 9 ->
      let ops = [| I.Div; I.Rem; I.Shl; I.Shr |] in
      let r =
        B.binop b ops.(x mod 4) T.U32
          (B.reg (pick !u32s (x / 4)))
          (B.reg (pick !u32s (x / 32)))
      in
      u32s := r :: !u32s
    | 10 ->
      let ops =
        [| I.Add; I.Sub; I.Mul_lo; I.Div; I.Rem; I.Min; I.Max; I.Xor; I.Shl
         ; I.Shr |]
      in
      let r =
        B.binop b ops.(x mod 10) T.U64
          (B.reg (pick !u64s (x / 10)))
          (B.reg (pick !u64s (x / 100)))
      in
      u64s := r :: !u64s
    | 11 ->
      let ops = [| I.Add; I.Sub; I.Mul_lo; I.Div; I.Min; I.Max |] in
      let r =
        if x mod 7 = 6 then
          B.mad b T.F64
            (B.reg (pick !f64s x))
            (B.reg (pick !f64s (x / 7)))
            (B.fimm (-0.5))
        else
          B.binop b ops.(x mod 7 mod 6) T.F64
            (B.reg (pick !f64s (x / 7)))
            (B.reg (pick !f64s (x / 49)))
      in
      f64s := r :: !f64s
    | 12 ->
      let cmps = [| I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge |] in
      let p =
        B.setp b cmps.(x mod 6) T.S32
          (B.reg (pick !s32s (x / 6)))
          (B.reg (pick !s32s (x / 36)))
      in
      s32s :=
        B.selp b T.S32 (B.reg (pick !s32s x)) (B.imm (-5)) p :: !s32s
    | 13 -> (
      (* int<->int and int<->float conversions, feeding every pool *)
      match x mod 10 with
      | 0 -> s32s := B.cvt b T.S32 T.U32 (B.reg (pick !u32s (x / 10))) :: !s32s
      | 1 -> u32s := B.cvt b T.U32 T.S32 (B.reg (pick !s32s (x / 10))) :: !u32s
      | 2 -> u64s := B.cvt b T.S64 T.S32 (B.reg (pick !s32s (x / 10))) :: !u64s
      | 3 -> u32s := B.cvt b T.U32 T.U64 (B.reg (pick !u64s (x / 10))) :: !u32s
      | 4 ->
        let h = B.cvt b T.S16 T.S32 (B.reg (pick !s32s (x / 10))) in
        s32s := B.cvt b T.S32 T.S16 (B.reg h) :: !s32s
      | 5 -> f32s := B.cvt b T.F32 T.S32 (B.reg (pick !s32s (x / 10))) :: !f32s
      | 6 -> s32s := B.cvt b T.S32 T.F32 (B.reg (pick !f32s (x / 10))) :: !s32s
      | 7 -> f64s := B.cvt b T.F64 T.U64 (B.reg (pick !u64s (x / 10))) :: !f64s
      | 8 -> u32s := B.cvt b T.U32 T.F64 (B.reg (pick !f64s (x / 10))) :: !u32s
      | _ -> f32s := B.cvt b T.F32 T.F64 (B.reg (pick !f64s (x / 10))) :: !f32s)
    | _ -> assert false
  in
  (* optional shared-memory tile: one provably-safe affine store, one
     interval-bounded load, and one data-dependent store whose index
     can really escape the array — the hybrid sanitizer must prove the
     first two and keep (and, at runtime, trip) a check on the third *)
  if plan.shared then begin
    let sdata = B.decl_shared b "sdata" T.B32 256 in
    let sbase = B.mov b T.U64 sdata in
    let tidb = B.special b Ptx.Reg.Tid_x in
    let safe_addr =
      let bytes = B.mul b T.U32 (B.reg tidb) (B.imm 4) in
      let o64 = B.cvt b T.U64 T.U32 (B.reg bytes) in
      B.add b T.U64 (B.reg sbase) (B.reg o64)
    in
    B.st b T.Shared T.U32 (B.reg safe_addr) 0 (B.reg tidb);
    let masked_addr =
      let idx = B.binop b I.And T.U32 (B.reg (pick !u32s 3)) (B.imm 63) in
      let bytes = B.mul b T.U32 (B.reg idx) (B.imm 4) in
      let o64 = B.cvt b T.U64 T.U32 (B.reg bytes) in
      B.add b T.U64 (B.reg sbase) (B.reg o64)
    in
    u32s := B.ld b T.Shared T.U32 (B.reg masked_addr) 0 :: !u32s;
    let wild_addr =
      (* & 2047 bounds the offset to 8188B — well past the 1024B array *)
      let idx = B.binop b I.And T.U32 (B.reg (pick !u32s 1)) (B.imm 2047) in
      let bytes = B.mul b T.U32 (B.reg idx) (B.imm 4) in
      let o64 = B.cvt b T.U64 T.U32 (B.reg bytes) in
      B.add b T.U64 (B.reg sbase) (B.reg o64)
    in
    B.st b T.Shared T.U32 (B.reg wild_addr) 0 (B.reg (pick !u32s 0))
  end;
  let third = max 1 (Array.length plan.ops / 3) in
  Array.iteri (fun i c -> if i < third then apply_op c) plan.ops;
  (* optional counted loop accumulating into a fixed register *)
  if plan.loop then begin
    let acc = B.mov b T.F32 (B.fimm 0.25) in
    B.for_loop b ~from:(B.imm 0) ~below:(B.imm 4) ~step:1 (fun i ->
      let fi = B.cvt b T.F32 T.U32 (B.reg i) in
      let x = B.mad b T.F32 (B.reg fi) (B.reg (pick !f32s 1)) (B.fimm 0.125) in
      B.acc_binop b I.Add T.F32 acc (B.reg x));
    f32s := acc :: !f32s
  end;
  Array.iteri (fun i c -> if i >= third && i < 2 * third then apply_op c) plan.ops;
  (* optional divergent region: odd threads do extra work *)
  if plan.branch then begin
    let bit = B.binop b I.And T.U32 (B.reg tid) (B.imm 1) in
    let p = B.setp b I.Eq T.U32 (B.reg bit) (B.imm 1) in
    let acc = B.mov b T.F32 (B.fimm 0.0) in
    let skip = B.fresh_label b "Lq" in
    B.bra_ifnot b p skip;
    let e = B.add b T.F32 (B.reg (pick !f32s 0)) (B.fimm 64.0) in
    B.acc_binop b I.Add T.F32 acc (B.reg e);
    B.label b skip;
    f32s := acc :: !f32s
  end;
  Array.iteri (fun i c -> if i >= 2 * third then apply_op c) plan.ops;
  (* fold the three most recent f32 values and store to out[tid] *)
  let result =
    match !f32s with
    | a :: b' :: c :: _ ->
      let t = B.add b T.F32 (B.reg a) (B.reg b') in
      B.add b T.F32 (B.reg t) (B.reg c)
    | a :: b' :: _ -> B.add b T.F32 (B.reg a) (B.reg b')
    | a :: _ -> a
    | [] -> B.mov b T.F32 (B.fimm 0.0)
  in
  let bytes = B.mul b T.U32 (B.reg tid) (B.imm 4) in
  let o64 = B.cvt b T.U64 T.U32 (B.reg bytes) in
  let addr = B.add b T.U64 (B.reg out64) (B.reg o64) in
  B.st b T.Global T.F32 (B.reg addr) 0 (B.reg result);
  B.finish b

let kernel ?(max_ops = 40) ?(with_loop = true) ?(with_branch = true)
    ?(with_shared = false) ?(wide = false) () =
  let open QCheck.Gen in
  int_range 3 max_ops >>= fun len ->
  array_size (return len) (int_bound 100_000) >>= fun ops ->
  (if with_loop then bool else return false) >>= fun loop ->
  (if with_branch then bool else return false) >>= fun branch ->
  (if with_shared then bool else return false) >>= fun shared ->
  return (build_from_plan { ops; loop; branch; shared; wide })

let arbitrary_kernel =
  QCheck.make ~print:Ptx.Printer.kernel_to_string (kernel ())

let arbitrary_wide_kernel =
  QCheck.make ~print:Ptx.Printer.kernel_to_string (kernel ~wide:true ())

let run_emulated ?(block_size = 64) ?(num_blocks = 2) k =
  let mem = Gpusim.Memory.create () in
  Gpusim.Memory.write_f32_array mem ~base:0x1000_0000L
    (Workloads.Data.uniform_f32 ~seed:5 1024);
  let launch =
    Gpusim.Launch.make ~kernel:k ~block_size ~num_blocks
      ~params:
        [ ("inp", Gpusim.Value.I 0x1000_0000L)
        ; ("out", Gpusim.Value.I 0x2000_0000L)
        ; ("n", Gpusim.Value.of_int 1024)
        ]
      mem
  in
  Gpusim.Memory.read_f32_array (Gpusim.Emulator.run launch) ~base:0x2000_0000L
    (block_size * num_blocks)

let outputs_equal a b =
  Array.length a = Array.length b
  && begin
    let ok = ref true in
    Array.iteri
      (fun i x ->
         if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
         then ok := false)
      a;
    !ok
  end
