(* Differential tests for the allocation-free fast path:

   - random kernels stepped through {!Gpusim.Interp} (predecoded,
     unboxed) and {!Testsupport.Refinterp} (the original boxed interpreter)
     in lockstep, requiring bit-identical control flow, lane addresses,
     register contents (value bits AND float tags) and final memory;
   - the paged {!Gpusim.Memory} against the old Hashtbl store as a
     model, over adversarial address patterns (unaligned, negative,
     huge) and every scalar type. *)

module G = Gpusim
module Refinterp = Testsupport.Refinterp

let value_eq a b =
  Int64.equal (G.Value.to_bits a) (G.Value.to_bits b)
  && Bool.equal (G.Value.is_f a) (G.Value.is_f b)

(* ---------- Interp vs Refinterp lockstep ---------- *)

let kernel_regs k =
  List.concat_map
    (fun i -> Ptx.Instr.defs i @ Ptx.Instr.uses i)
    (Ptx.Kernel.instrs k)
  |> List.sort_uniq compare

let lane_addrs_match wf (lane_addrs : (int * int64) list) =
  let n = G.Interp.mem_count wf in
  List.length lane_addrs = n
  && List.for_all2
       (fun (lane, addr) i ->
          lane = G.Interp.mem_lane wf i && Int64.equal addr (G.Interp.mem_addr wf i))
       lane_addrs
       (List.init n Fun.id)

let exec_matches wf (f : G.Interp.exec) (r : Refinterp.exec) =
  match (f, r) with
  | G.Interp.E_alu c, Refinterp.E_alu c' -> c = c'
  | ( G.Interp.E_mem { space; write; width }
    , Refinterp.E_mem { space = s'; write = w'; width = wd'; lane_addrs } ) ->
    Ptx.Types.equal_space space s' && write = w' && width = wd'
    && lane_addrs_match wf lane_addrs
  | G.Interp.E_barrier, Refinterp.E_barrier -> true
  | G.Interp.E_exit, Refinterp.E_exit -> true
  | _ -> false

let regs_match regs wf wr =
  List.for_all
    (fun r ->
       let vf = G.Interp.read_reg_values wf r in
       let vr = Refinterp.read_reg_values wr r in
       Array.length vf = Array.length vr
       && Array.for_all2 value_eq vf vr)
    regs

let prop_lockstep =
  QCheck.Test.make ~count:40 ~name:"fast path tracks reference interpreter"
    Testsupport.Gen.arbitrary_wide_kernel (fun k ->
      let mem_f = G.Memory.create () in
      G.Memory.write_f32_array mem_f ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:11 1024);
      let mem_r = G.Memory.copy mem_f in
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      let image = G.Image.prepare k in
      let lctx_f =
        { G.Interp.image; global = mem_f; params; block_size = 64; num_blocks = 2 ; san = None}
      in
      let lctx_r =
        { Refinterp.image; global = mem_r; params; block_size = 64
        ; num_blocks = 2 ; san = None}
      in
      let regs = kernel_regs k in
      for ctaid = 0 to 1 do
        let _, warps_f = G.Interp.make_block lctx_f ~ctaid ~warp_size:32 in
        let _, warps_r = Refinterp.make_block lctx_r ~ctaid ~warp_size:32 in
        let pairs = List.combine warps_f warps_r in
        let budget = ref 2_000_000 in
        let live = ref true in
        while !live && !budget > 0 do
          live := false;
          List.iter
            (fun (wf, wr) ->
               if not (G.Interp.is_done wf) then begin
                 live := true;
                 decr budget;
                 if Refinterp.is_done wr then
                   QCheck.Test.fail_report "reference warp finished early";
                 if G.Interp.pc wf <> Refinterp.pc wr then
                   QCheck.Test.fail_report "pc diverged";
                 if G.Interp.active_mask wf <> Refinterp.active_mask wr then
                   QCheck.Test.fail_report "active mask diverged";
                 let ef = G.Interp.step wf in
                 let er = Refinterp.step wr in
                 if not (exec_matches wf ef er) then
                   QCheck.Test.fail_report "exec/lane addresses diverged"
               end)
            pairs;
          if !live && !budget = 0 then QCheck.Test.fail_report "step budget blown"
        done;
        List.iter
          (fun (wf, wr) ->
             if not (Refinterp.is_done wr) then
               QCheck.Test.fail_report "fast warp finished early";
             if not (regs_match regs wf wr) then
               QCheck.Test.fail_report "register file diverged")
          pairs
      done;
      G.Memory.equal mem_f mem_r)

(* whole-launch: the boxed reference semantics vs the fast path that
   the timing simulator's functional pass runs (the recording
   emulator), whose trace the timing simulator then times; only the
   per-thread output buffer is compared *)
let prop_ref_vs_sm =
  QCheck.Test.make ~count:15 ~name:"timing sim on fast path matches reference run"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem = G.Memory.create () in
      G.Memory.write_f32_array mem ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:7 1024);
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      let l = G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~tlp_limit:2 ~params mem in
      let mem_r = Refinterp.run l in
      let tr = G.Replay.create l in
      let mem_f = G.Emulator.run ~record:tr l in
      G.Replay.finish tr;
      G.Sm.run ~replay:tr G.Config.fermi l = G.Sm.run G.Config.fermi l
      && Testsupport.Gen.outputs_equal
           (G.Memory.read_f32_array mem_r ~base:0x2000_0000L 128)
           (G.Memory.read_f32_array mem_f ~base:0x2000_0000L 128))

(* ---------- Interp vs Refinterp, one instruction at a time ---------- *)

(* Every Dcode form, at every scalar type (both [cvt] types), with each
   operand kind in the first operand slot, under a full, a partial and
   an empty active mask, runs as the one instruction of interest of a
   small kernel on a single warp. A prefix gives each register operand
   per-lane values from memory (NaN, negative, >= 2^31 and 64-bit
   patterns) and, through an aliasing register of another type loaded
   under a second mask, mixed float tags; the focus instruction sits in
   a branch taken by the lanes of the exec mask (an empty active mask
   cannot arise in either interpreter: a SIMT stack entry is never
   pushed empty, so the empty case is the region every lane skips).
   Both interpreters must agree step by step on pc, mask and lane
   addresses, then on every register's bits and float tags, on global
   and shared memory, on the sanitizer's counters, and on whether the
   run raised. *)

module T = Ptx.Types
module I = Ptx.Instr

type kind = Kreg | Kimm | Kfimm | Kspecial | Kparam | Klocal

let all_kinds = [ Kreg; Kimm; Kfimm; Kspecial; Kparam; Klocal ]

let kind_name = function
  | Kreg -> "reg" | Kimm -> "imm" | Kfimm -> "fimm" | Kspecial -> "special"
  | Kparam -> "param" | Klocal -> "local"

(* the exec mask the instruction runs under *)
type masking = Full | Partial | Empty

type form =
  | Fmov
  | Fbinop of I.binop
  | Fmad
  | Funop of I.unop
  | Fcvt of T.scalar (* source type; the form's type is the destination *)
  | Fsetp of I.cmp
  | Fselp
  | Fld_param
  | Fld of T.space
  | Fst of T.space
  | Fbra_pred of bool
  | Fbra
  | Fbar
  | Fret
  | Fbad (* a store to an unsupported space: lowered to DBad *)

let all_forms =
  List.concat
    [ [ Fmov; Fmad; Fselp; Fld_param ]
    ; List.map (fun o -> Fbinop o)
        [ I.Add; I.Sub; I.Mul_lo; I.Div; I.Rem; I.Min; I.Max; I.And; I.Or
        ; I.Xor; I.Shl; I.Shr ]
    ; List.map (fun o -> Funop o)
        [ I.Neg; I.Not; I.Abs; I.Sqrt; I.Rcp; I.Ex2; I.Lg2 ]
    ; List.map (fun st -> Fcvt st) T.all_scalars
    ; List.map (fun c -> Fsetp c) [ I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge ]
    ; List.map (fun sp -> Fld sp) [ T.Const; T.Shared; T.Global; T.Local ]
    ; List.map (fun sp -> Fst sp) [ T.Shared; T.Global; T.Local ]
    ]

(* forms without a type or an operand kind to vary *)
let fixed_forms = [ Fbra_pred true; Fbra_pred false; Fbra; Fbar; Fret; Fbad ]

let class_types = function
  | T.Cpred -> [| T.Pred |]
  | T.C32 -> [| T.U16; T.U32; T.S16; T.S32; T.F32; T.B8; T.B16; T.B32 |]
  | T.C64 -> [| T.U64; T.S64; T.F64; T.B64 |]

let scalars = Array.of_list T.all_scalars
let lanes = 32
let frame_words = 8
let global_base = 0x1000_0000
let region k = 0x2000_0000 + (k * 0x1000) (* operand k's per-lane values *)

let pick st a = a.(Random.State.int st (Array.length a))

let special_floats =
  [| Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.5
   ; -1.5; 1e300; 4.9e-324; 3.4e38; 16777217.0 |]

(* a 64-bit pattern from every corner that matters *)
let gen_bits st =
  match Random.State.int st 8 with
  | 0 -> Int64.of_int (Random.State.int st 100)
  | 1 -> Int64.of_int (-1 - Random.State.int st 100)
  | 2 -> Int64.add 0x8000_0000L (Int64.of_int (Random.State.bits st))
  | 3 -> Random.State.bits64 st
  | 4 -> Int64.bits_of_float (Random.State.float st 2e6 -. 1e6)
  | 5 -> Int64.bits_of_float (pick st special_floats)
  | 6 -> Int64.of_int (Random.State.int st 2)
  | _ ->
    pick st
      [| 0xFFFF_FFFFL; 0x7FFF_FFFFL; Int64.min_int; Int64.max_int; -1L
       ; 0x1_0000_0000L |]

let gen_mask st =
  match Random.State.int st 3 with
  | 0 -> 0x5555_5555
  | 1 -> 1 lsl Random.State.int st lanes
  | _ -> (Random.State.bits st lor (Random.State.bits st lsl 30)) land 0xFFFF_FFFF

(* A value for a memory address operand of [space], per lane: mostly
   in bounds, sometimes not (caught by the sanitizer, or raising in
   both interpreters alike). *)
let gen_addr st space ~lane ~frame =
  let wild = Random.State.int st 8 = 0 in
  match space with
  | T.Shared ->
    if wild then Int64.of_int (4096 + Random.State.int st 64)
    else Int64.of_int (4 * Random.State.int st 64)
  | T.Local ->
    let off = if wild then frame + 4 else 4 * Random.State.int st frame_words in
    Int64.add G.Image.local_base (Int64.of_int ((lane * frame) + off))
  | T.Const | T.Global | T.Param | T.Reg ->
    if wild then gen_bits st
    else Int64.of_int (global_base + (8 * Random.State.int st 256))

type case =
  { kernel : Ptx.Kernel.t
  ; focus : int (* pc of the instruction under test *)
  ; params : (string * G.Value.t) list
  ; claim : G.Sancheck.claim option
  ; force : bool
  ; fill : G.Memory.t -> unit (* per-operand regions and global data *)
  ; shared_fill : (int64 * T.scalar * G.Value.t) list
  ; regs : Ptx.Reg.t list
  }

let build_case st form ~ty ~kind ~exec =
  let ids = ref 0 in
  let reg ty =
    incr ids;
    Ptx.Reg.make (100 + !ids) ty
  in
  let body = ref [] in
  let emit i = body := Ptx.Kernel.I i :: !body in
  let label l = body := Ptx.Kernel.L l :: !body in
  let regions = ref [] in
  (* per-lane address [tid * 8] *)
  let tid32 = reg T.U32 in
  emit (I.Mov (T.U32, tid32, I.Ospecial Ptx.Reg.Tid_x));
  let off = reg T.U64 in
  emit (I.Cvt (T.U64, T.U32, off, I.Oreg tid32));
  emit (I.Binop (I.Shl, T.U64, off, I.Oreg off, I.Oimm 3L));
  (* a predicate true on the lanes of [m] *)
  let lanes_pred m =
    let t = reg T.U32 in
    emit (I.Binop (I.Shr, T.U32, t, I.Oimm (Int64.of_int m), I.Oreg tid32));
    emit (I.Binop (I.And, T.B32, t, I.Oreg t, I.Oimm 1L));
    let p = reg T.Pred in
    emit (I.Setp (I.Ne, T.U32, p, I.Oreg t, I.Oimm 0L));
    p
  in
  let frame = frame_words * 4 in
  (* a register operand: slot [id] loaded per lane from region [k], then
     re-loaded through an aliasing register of another type (so another
     float tag) on the lanes of a random mask *)
  let nregs = ref 0 in
  let reg_operand ?space rcls =
    let k = !nregs in
    incr nregs;
    let id = 10 + k in
    let t1 = pick st (class_types rcls) and t2 = pick st (class_types rcls) in
    let values =
      Array.init lanes (fun lane ->
        match space with
        | Some sp ->
          (* an address, held as an integer or as a float value *)
          let a = gen_addr st sp ~lane ~frame in
          if Random.State.bool st then G.Value.F (Int64.to_float a)
          else G.Value.I a
        | None ->
          let bits = gen_bits st in
          if Random.State.bool st then G.Value.F (Int64.float_of_bits bits)
          else G.Value.I bits)
    in
    regions := (k, values) :: !regions;
    let r1 = Ptx.Reg.make id t1 in
    emit (I.Ld (T.Global, t1, r1, { I.base = I.Oreg off; offset = region k }));
    if rcls <> T.Cpred && Random.State.bool st then begin
      let p = lanes_pred (gen_mask st) in
      let skip = Printf.sprintf "Ltag%d" k in
      emit (I.Bra_pred (p, false, skip));
      emit
        (I.Ld
           ( T.Global
           , t2
           , Ptx.Reg.make id t2
           , { I.base = I.Oreg off; offset = region k } ));
      label skip
    end;
    Ptx.Reg.make id (pick st (class_types rcls))
  in
  let param_name = if Random.State.int st 16 = 0 then "unbound" else "q" in
  let operand ?space kind =
    match kind with
    | Kreg ->
      let cls =
        match space with
        | Some _ -> if Random.State.int st 4 = 0 then T.C32 else T.C64
        | None -> pick st [| T.Cpred; T.C32; T.C64; T.C64 |]
      in
      I.Oreg (reg_operand ?space cls)
    | Kimm ->
      I.Oimm
        (match space with
         | Some sp -> gen_addr st sp ~lane:0 ~frame
         | None -> gen_bits st)
    | Kfimm ->
      I.Ofimm
        (match space with
         | Some sp -> Int64.to_float (gen_addr st sp ~lane:0 ~frame)
         | None -> Int64.float_of_bits (gen_bits st))
    | Kspecial ->
      I.Ospecial
        (pick st
           [| Ptx.Reg.Tid_x; Tid_y; Ctaid_x; Ctaid_y; Ntid_x; Ntid_y; Nctaid_x
            ; Nctaid_y; Laneid; Warpid |])
    | Kparam -> I.Oparam param_name
    | Klocal -> I.Osym "loc"
  in
  let rand_kind () = pick st (Array.of_list all_kinds) in
  let dst_reg ty' =
    (* sometimes the destination aliases a source slot *)
    if !nregs > 0 && Random.State.int st 3 = 0 then
      Ptx.Reg.make (10 + Random.State.int st !nregs) ty'
    else Ptx.Reg.make 50 ty'
  in
  let dty () = if Random.State.bool st then ty else pick st scalars in
  let space_off () = 4 * Random.State.int st 3 in
  let focus =
    match form with
    | Fmov ->
      let a = operand kind in
      I.Mov (ty, dst_reg (dty ()), a)
    | Fbinop op ->
      let a = operand kind in
      let b = operand (rand_kind ()) in
      I.Binop (op, ty, dst_reg (dty ()), a, b)
    | Fmad ->
      let a = operand kind in
      let b = operand (rand_kind ()) in
      let c = operand (rand_kind ()) in
      I.Mad (ty, dst_reg (dty ()), a, b, c)
    | Funop op ->
      let a = operand kind in
      I.Unop (op, ty, dst_reg (dty ()), a)
    | Fcvt src ->
      let a = operand kind in
      I.Cvt (ty, src, dst_reg (dty ()), a)
    | Fsetp cmp ->
      let a = operand kind in
      let b = operand (rand_kind ()) in
      let d = if Random.State.int st 4 = 0 then pick st scalars else T.Pred in
      I.Setp (cmp, ty, dst_reg d, a, b)
    | Fselp ->
      let a = operand kind in
      let b = operand (rand_kind ()) in
      let p = reg_operand T.Cpred in
      I.Selp (ty, dst_reg (dty ()), a, b, p)
    | Fld_param ->
      I.Ld (T.Param, ty, dst_reg (dty ()), { I.base = I.Oparam param_name; offset = 0 })
    | Fld space ->
      let base = operand ~space kind in
      I.Ld (space, ty, dst_reg (dty ()), { I.base; offset = space_off () })
    | Fst space ->
      let base = operand ~space kind in
      let v = operand (rand_kind ()) in
      I.St (space, ty, { I.base; offset = space_off () }, v)
    | Fbra_pred sense ->
      let p = reg_operand T.Cpred in
      I.Bra_pred (p, sense, "Lskip")
    | Fbra -> I.Bra "Lskip"
    | Fbar -> I.Bar_sync
    | Fret -> I.Ret
    | Fbad -> I.St (T.Const, ty, { I.base = I.Oimm 0L; offset = 0 }, I.Oimm 0L)
  in
  let pexec = lanes_pred exec in
  emit (I.Bra_pred (pexec, false, "Lskip"));
  let focus_pc =
    List.length
      (List.filter (function Ptx.Kernel.I _ -> true | Ptx.Kernel.L _ -> false)
         !body)
  in
  emit focus;
  label "Lskip";
  emit I.Ret;
  let kernel =
    { Ptx.Kernel.name = "one"
    ; params = [ ("q", ty) ]
    ; decls =
        [ { Ptx.Kernel.dname = "loc"; dspace = T.Local; delem = T.B32
          ; dcount = frame_words; dalign = 4 }
        ]
    ; body = Array.of_list (List.rev !body)
    }
  in
  let pv =
    let asf = Random.State.bool st in
    match form with
    | Fld sp | Fst sp ->
      let a = gen_addr st sp ~lane:0 ~frame in
      if asf then G.Value.F (Int64.to_float a) else G.Value.I a
    | _ ->
      let bits = gen_bits st in
      if asf then G.Value.F (Int64.float_of_bits bits) else G.Value.I bits
  in
  let image = G.Image.prepare kernel in
  let random_value () =
    if Random.State.bool st then (T.F64, G.Value.F (Int64.float_of_bits (gen_bits st)))
    else (T.U64, G.Value.I (gen_bits st))
  in
  let global_data =
    List.init 256 (fun i ->
      let ty, v = random_value () in
      (Int64.of_int (global_base + (8 * i)), ty, v))
  in
  let local_data =
    List.concat
      (List.init lanes (fun lane ->
         List.init frame_words (fun w ->
           let ty, v = random_value () in
           ( G.Image.remap_local image ~global_tid:lane
               (G.Image.local_addr image ~global_tid:lane ~sym_offset:(4 * w))
           , ty
           , v ))))
  in
  let shared_fill =
    List.init 64 (fun i ->
      let ty, v = random_value () in
      (Int64.of_int (4 * i), ty, v))
  in
  let regions = !regions in
  let fill m =
    List.iter (fun (a, ty, v) -> G.Memory.write m a ty v) (global_data @ local_data);
    List.iter
      (fun (k, values) ->
         Array.iteri
           (fun lane v ->
              let a = Int64.of_int (region k + (8 * lane)) in
              match v with
              | G.Value.F _ -> G.Memory.write m a T.F64 v
              | G.Value.I _ -> G.Memory.write m a T.U64 v)
           values)
      regions
  in
  let bound () =
    if Random.State.bool st then
      G.Sancheck.Segment
        { lo = 4 * Random.State.int st 8; hi = 4 * (8 + Random.State.int st 64) }
    else
      G.Sancheck.Per_thread
        { base = 4 * Random.State.int st 4; stride = frame - (4 * Random.State.int st 4) }
  in
  let claim =
    match Random.State.int st 4 with
    | 0 -> None
    | 1 -> Some (G.Sancheck.Proven_safe (bound ()))
    | 2 -> Some (G.Sancheck.Proven_oob (bound ()))
    | _ -> Some (G.Sancheck.Residual (bound ()))
  in
  { kernel
  ; focus = focus_pc
  ; params = [ ("q", pv) ]
  ; claim
  ; force = Random.State.bool st
  ; fill
  ; shared_fill
  ; regs = kernel_regs kernel
  }

let describe form ~ty ~kind ~exec =
  Printf.sprintf "%s.%s, first operand %s, exec mask %08x"
    (match form with
     | Fmov -> "mov" | Fbinop o -> I.binop_to_string o | Fmad -> "mad"
     | Funop o -> I.unop_to_string o
     | Fcvt s -> "cvt.?." ^ T.scalar_to_string s
     | Fsetp c -> "setp." ^ I.cmp_to_string c | Fselp -> "selp"
     | Fld_param -> "ld.param" | Fld sp -> "ld." ^ T.space_to_string sp
     | Fst sp -> "st." ^ T.space_to_string sp
     | Fbra_pred s -> if s then "@p bra" else "@!p bra"
     | Fbra -> "bra" | Fbar -> "bar" | Fret -> "ret" | Fbad -> "st.const")
    (T.scalar_to_string ty) (kind_name kind) exec

let counters_of (rt : G.Sancheck.runtime) =
  List.map
    (fun (pc, (s : G.Sancheck.stat)) ->
       (pc, s.G.Sancheck.seen, s.G.Sancheck.checked, s.G.Sancheck.violations
       , s.G.Sancheck.first))
    (G.Sancheck.stats rt.G.Sancheck.counters)

(* [None] when the two interpreters agree, else what differed *)
let run_case c =
  let mem_f = G.Memory.create () in
  c.fill mem_f;
  let mem_r = G.Memory.copy mem_f in
  let num_instrs = List.length (Ptx.Kernel.instrs c.kernel) in
  let san () =
    Option.map
      (fun cl ->
         G.Sancheck.runtime
           (G.Sancheck.make ~force:c.force ~num_instrs [ (c.focus, cl) ]))
      c.claim
  in
  let san_f = san () and san_r = san () in
  let image = G.Image.prepare c.kernel in
  let lctx_f =
    { G.Interp.image; global = mem_f; params = c.params; block_size = lanes
    ; num_blocks = 1; san = san_f }
  in
  let lctx_r =
    { Refinterp.image; global = mem_r; params = c.params; block_size = lanes
    ; num_blocks = 1; san = san_r }
  in
  let bf, warps_f = G.Interp.make_block lctx_f ~ctaid:0 ~warp_size:lanes in
  let br, warps_r = Refinterp.make_block lctx_r ~ctaid:0 ~warp_size:lanes in
  List.iter
    (fun (a, ty, v) ->
       G.Memory.write bf.G.Interp.shared a ty v;
       G.Memory.write br.Refinterp.shared a ty v)
    c.shared_fill;
  let wf = List.hd warps_f and wr = List.hd warps_r in
  let raised f = match f () with x -> Ok x | exception (Invalid_argument _ | Failure _) -> Error () in
  (* [`Raised]: both raised, which ends the comparison (a raising
     instruction aborts the launch, so its partial effects are moot) *)
  let rec loop budget =
    if budget = 0 then `Bad "step budget blown"
    else if G.Interp.is_done wf || Refinterp.is_done wr then
      if G.Interp.is_done wf && Refinterp.is_done wr then `Done
      else `Bad "one warp finished early"
    else if G.Interp.pc wf <> Refinterp.pc wr then `Bad "pc diverged"
    else if G.Interp.active_mask wf <> Refinterp.active_mask wr then
      `Bad "active mask diverged"
    else
      match (raised (fun () -> G.Interp.step wf), raised (fun () -> Refinterp.step wr)) with
      | Error (), Error () -> `Raised
      | Ok _, Error () -> `Bad "only the reference raised"
      | Error (), Ok _ -> `Bad "only the fast path raised"
      | Ok ef, Ok er ->
        if not (exec_matches wf ef er) then `Bad "exec/lane addresses diverged"
        else loop (budget - 1)
  in
  let claim =
    match c.claim with
    | None -> "no claim"
    | Some (G.Sancheck.Proven_safe _) ->
      if c.force then "forced proven-safe claim" else "proven-safe claim"
    | Some (G.Sancheck.Proven_oob _) -> "proven-oob claim"
    | Some (G.Sancheck.Residual _) -> "residual claim"
  in
  Option.map (fun what -> what ^ "\nsanitizer: " ^ claim)
  @@
  match loop 1000 with
  | `Bad what -> Some what
  | `Raised -> None
  | `Done ->
    let show v =
      String.concat " "
        (Array.to_list
           (Array.map
              (fun x ->
                 Printf.sprintf "%Lx%s" (G.Value.to_bits x)
                   (if G.Value.is_f x then "f" else ""))
              v))
    in
    let reg_diffs =
      List.filter_map
        (fun r ->
           let vf = G.Interp.read_reg_values wf r in
           let vr = Refinterp.read_reg_values wr r in
           if Array.for_all2 value_eq vf vr then None
           else
             Some
               (Printf.sprintf "%s fast: %s\n%s ref:  %s" (Ptx.Reg.name r)
                  (show vf) (Ptx.Reg.name r) (show vr)))
        c.regs
    in
    if reg_diffs <> [] then
      Some (String.concat "\n" ("register bits or float tags diverged" :: reg_diffs))
    else if G.Memory.digest mem_f <> G.Memory.digest mem_r then
      Some "global memory diverged"
    else if G.Memory.digest bf.G.Interp.shared <> G.Memory.digest br.Refinterp.shared
    then Some "shared memory diverged"
    else
      match (san_f, san_r) with
      | Some f, Some r when counters_of f <> counters_of r ->
        Some "sanitizer counters diverged"
      | _ -> None

let all_combos =
  let execs = [ Full; Partial; Empty ] in
  let typed =
    List.concat_map
      (fun form ->
         List.concat_map
           (fun ty ->
              let kinds =
                match form with
                | Fld_param -> [ Kparam ]
                | _ -> all_kinds
              in
              List.concat_map
                (fun kind -> List.map (fun exec -> (form, ty, kind, exec)) execs)
                kinds)
           T.all_scalars)
      all_forms
  in
  typed
  @ List.concat_map
      (fun form -> List.map (fun exec -> (form, T.U32, Kreg, exec)) execs)
      fixed_forms

let prop_instr =
  QCheck.Test.make ~count:2
    ~name:"each instruction form matches the reference lane by lane"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       List.iteri
         (fun i (form, ty, kind, exec) ->
            let st = Random.State.make [| seed; i |] in
            let exec =
              match exec with
              | Full -> 0xFFFF_FFFF
              | Empty -> 0
              | Partial ->
                let m = gen_mask st in
                if m = 0 || m = 0xFFFF_FFFF then 0x0F0F_F0F0 else m
            in
            let c = build_case st form ~ty ~kind ~exec in
            match run_case c with
            | None -> ()
            | Some what ->
              QCheck.Test.fail_reportf "%s: %s (seed %d)\n%s"
                (describe form ~ty ~kind ~exec) what seed
                (Ptx.Printer.kernel_to_string c.kernel))
         all_combos;
       true)

(* ---------- paged memory vs the old Hashtbl model ---------- *)

(* the seed's memory implementation, verbatim: the model *)
module Model = struct
  type t = (int64, G.Value.t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let read (t : t) addr ty =
    match Hashtbl.find_opt t addr with
    | Some v -> G.Value.truncate ty v
    | None -> G.Value.truncate ty G.Value.zero

  let write (t : t) addr ty v = Hashtbl.replace t addr (G.Value.truncate ty v)
end

let gen_addr =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> Int64.of_int (4 * abs i)) (QCheck.Gen.int_bound 3000)
      (* aligned, spanning several pages *)
    ; QCheck.Gen.map
        (fun i -> Int64.of_int ((4 * abs i) + 1))
        (QCheck.Gen.int_bound 200)  (* unaligned -> side table *)
    ; QCheck.Gen.map (fun i -> Int64.of_int (-4 * (1 + abs i))) (QCheck.Gen.int_bound 200)
      (* negative -> side table *)
    ; QCheck.Gen.map
        (fun i -> Int64.add 0x4000_0000_0000_0000L (Int64.of_int (4 * abs i)))
        (QCheck.Gen.int_bound 200)  (* beyond the paged range *)
    ]

let gen_scalar = QCheck.Gen.oneofl Ptx.Types.all_scalars

let gen_value =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> G.Value.I (Int64.of_int i)) QCheck.Gen.int
    ; QCheck.Gen.map (fun f -> G.Value.F f) QCheck.Gen.float
    ; QCheck.Gen.return (G.Value.F Float.nan)
    ; QCheck.Gen.return (G.Value.I (-1L))
    ]

type mem_op =
  | Write of int64 * Ptx.Types.scalar * G.Value.t
  | Read of int64 * Ptx.Types.scalar

let gen_op =
  QCheck.Gen.oneof
    [ QCheck.Gen.map3 (fun a ty v -> Write (a, ty, v)) gen_addr gen_scalar gen_value
    ; QCheck.Gen.map2 (fun a ty -> Read (a, ty)) gen_addr gen_scalar
    ]

let pp_op = function
  | Write (a, ty, v) ->
    Printf.sprintf "write %Ld %s %Ld" a
      (Ptx.Types.scalar_to_string ty)
      (G.Value.to_bits v)
  | Read (a, ty) -> Printf.sprintf "read %Ld %s" a (Ptx.Types.scalar_to_string ty)

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 400) gen_op)

let prop_memory_model =
  QCheck.Test.make ~count:200 ~name:"paged memory matches the Hashtbl model"
    arbitrary_ops (fun ops ->
      let m = G.Memory.create () in
      let model = Model.create () in
      List.iter
        (function
          | Write (a, ty, v) ->
            G.Memory.write m a ty v;
            Model.write model a ty v
          | Read (a, ty) ->
            let got = G.Memory.read m a ty in
            let want = Model.read model a ty in
            if not (value_eq got want) then
              QCheck.Test.fail_reportf "read %Ld %s: got %Ld/%b want %Ld/%b" a
                (Ptx.Types.scalar_to_string ty)
                (G.Value.to_bits got) (G.Value.is_f got) (G.Value.to_bits want)
                (G.Value.is_f want))
        ops;
      (* the fold view agrees with the model's contents *)
      let dump mem_fold =
        mem_fold (fun k v acc -> (k, G.Value.to_bits v, G.Value.is_f v) :: acc) []
        |> List.filter (fun (_, bits, _) -> not (Int64.equal bits 0L))
        |> List.sort compare
      in
      dump (fun f init -> G.Memory.fold f m init)
      = dump (fun f init -> Hashtbl.fold f model init))

let test_memory_copy_isolated () =
  let m = G.Memory.create () in
  G.Memory.write m 8L Ptx.Types.U32 (G.Value.of_int 7);
  let c = G.Memory.copy m in
  G.Memory.write c 8L Ptx.Types.U32 (G.Value.of_int 9);
  G.Memory.write c 1048576L Ptx.Types.F32 (G.Value.F 2.5);
  Alcotest.(check int) "original untouched" 7
    (Int64.to_int (G.Value.to_int64 (G.Memory.read m 8L Ptx.Types.U32)));
  Alcotest.(check int) "copy updated" 9
    (Int64.to_int (G.Value.to_int64 (G.Memory.read c 8L Ptx.Types.U32)));
  Alcotest.(check bool) "copies diverge" false (G.Memory.equal m c)

(* ---------- recording stays allocation-free ---------- *)

(* The dev profile compiles every library with [-opaque], so a per-lane
   call across a module boundary boxes its int64 and float values
   without any visible sign but the allocation count. The functional
   pass that records a trace allocated about 460 minor words per warp
   instruction when it did that; the warp-wide kernels leave 0.7 to 3.9
   (STM 0.72, HST 1.96, PTF 3.12, BFS 3.93: per-block set-up and the
   trace buffers' growth). The ceiling of 16 keeps a 4x margin over
   the worst of them and still fails a single boxed int64 per active
   lane (3 words x 32 lanes). *)
let words_ceiling = 16.0

let test_record_allocation () =
  List.iter
    (fun abbr ->
       let app = Workloads.Suite.find abbr in
       let launch () =
         Workloads.App.launch app ~input:(Workloads.App.default_input app) ()
       in
       let record () =
         let l = launch () in
         let tr = G.Replay.create l in
         let before = Gc.minor_words () in
         ignore (G.Emulator.run ~record:tr l);
         (tr, Gc.minor_words () -. before)
       in
       ignore (record ());
       let tr, words = record () in
       let instrs = ref 0 in
       for ctaid = 0 to G.Replay.num_blocks tr - 1 do
         for wid = 0 to (G.Replay.block_size tr / G.Replay.warp_size tr) - 1 do
           let c = G.Replay.cursor tr ~ctaid ~wid in
           while not (G.Replay.is_done c) do
             ignore (G.Replay.step c);
             incr instrs
           done
         done
       done;
       let per = words /. float_of_int !instrs in
       if per > words_ceiling then
         Alcotest.failf
           "%s: recording allocated %.2f minor words per warp instruction \
            (%d instructions), over the ceiling of %.0f"
           abbr per !instrs words_ceiling)
    [ "HST"; "STM"; "BFS"; "PTF" ]

(* ---------- replay stays lean ---------- *)

(* Replaying a recorded trace through the timing model allocates per
   warp instruction what the LSU, the caches and the schedulers need:
   each load's pending record, a cache [Miss] result and the pools'
   periodic rebuilds. Measured on Fermi with the default input, the
   worst of these apps at TLP 2 and 8 reads 16.9 minor words per
   replayed warp instruction (KMN at TLP 8; STM 12.8, BFS 9.8, PTF 8.9).
   When the caches took byte addresses as boxed int64s, KMN read 30.5
   and STM 24.2 there. The ceiling of 22 keeps a 30% margin over the
   worst, and fails that older design on both. *)
let replay_words_ceiling = 22.0

let test_replay_allocation () =
  let cfg = G.Config.fermi in
  List.iter
    (fun abbr ->
       let app = Workloads.Suite.find abbr in
       let l = Workloads.App.launch app ~input:(Workloads.App.default_input app) () in
       let tr = G.Replay.create l in
       ignore (G.Sm.run ~record:tr cfg (G.Launch.with_tlp l 2));
       G.Replay.finish tr;
       List.iter
         (fun tlp ->
            let replay () = G.Sm.run ~replay:tr cfg (G.Launch.with_tlp l tlp) in
            ignore (replay ());
            let before = Gc.minor_words () in
            let st = replay () in
            let words = Gc.minor_words () -. before in
            let per = words /. float_of_int st.G.Stats.warp_instrs in
            if per > replay_words_ceiling then
              Alcotest.failf
                "%s at TLP %d: replay allocated %.2f minor words per warp \
                 instruction (%d instructions), over the ceiling of %.0f"
                abbr tlp per st.G.Stats.warp_instrs replay_words_ceiling)
         [ 2; 8 ])
    [ "KMN"; "STM"; "BFS"; "PTF" ]

let () =
  Alcotest.run "fastpath"
    [ ( "differential"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_lockstep; prop_instr; prop_ref_vs_sm; prop_memory_model ] )
    ; ( "memory"
      , [ Alcotest.test_case "copy isolation" `Quick test_memory_copy_isolated ] )
    ; ( "allocation"
      , [ Alcotest.test_case "recording allocates nothing per lane" `Quick
            test_record_allocation
        ; Alcotest.test_case "replay allocates little per instruction" `Quick
            test_replay_allocation
        ] )
    ]
