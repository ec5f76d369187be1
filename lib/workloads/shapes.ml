module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types

type knobs =
  { live : int
  ; mem_live : int
  ; flops : int
  ; sfu_every : int
  ; naccs : int
  }

(* Shared prologue: parameter loads, thread/block identifiers and the
   block's private region pointer [inp + ctaid*ws*4]. *)
type env =
  { b : B.t
  ; tid : Ptx.Reg.t  (** u32 *)
  ; ntid : Ptx.Reg.t
  ; ctaid : Ptx.Reg.t
  ; gtid : Ptx.Reg.t
  ; region : Ptx.Reg.t  (** u64 *)
  ; out64 : Ptx.Reg.t
  ; ws : Ptx.Reg.t  (** u32 words per block region *)
  ; iters : Ptx.Reg.t
  ; passes : Ptx.Reg.t
  }

let prologue ?(extra_params = []) name =
  let b = B.create name in
  let inp = B.param b "inp" T.U64 in
  let out = B.param b "out" T.U64 in
  let ws_p = B.param b "ws" T.U32 in
  let iters_p = B.param b "iters" T.U32 in
  let passes_p = B.param b "passes" T.U32 in
  List.iter (fun (n, ty) -> ignore (B.param b n ty)) extra_params;
  let tid = B.special b Ptx.Reg.Tid_x in
  let ctaid = B.special b Ptx.Reg.Ctaid_x in
  let ntid = B.special b Ptx.Reg.Ntid_x in
  let gtid = B.mad b T.U32 (B.reg ctaid) (B.reg ntid) (B.reg tid) in
  let inp64 = B.ld_param b T.U64 inp in
  let out64 = B.ld_param b T.U64 out in
  let ws = B.ld_param b T.U32 ws_p in
  let iters = B.ld_param b T.U32 iters_p in
  let passes = B.ld_param b T.U32 passes_p in
  (* region stride = ws + one cache line of padding, so different blocks'
     regions do not alias the same cache sets *)
  let wspad = B.add b T.U32 (B.reg ws) (B.imm 32) in
  let roff = B.mul b T.U32 (B.reg ctaid) (B.reg wspad) in
  let rbytes = B.mul b T.U32 (B.reg roff) (B.imm 4) in
  let roff64 = B.cvt b T.U64 T.U32 (B.reg rbytes) in
  let region = B.add b T.U64 (B.reg inp64) (B.reg roff64) in
  { b; tid; ntid; ctaid; gtid; region; out64; ws; iters; passes }

(* f32 load from a u32 word index off a u64 base *)
let load_f32 b base idx =
  let bytes = B.mul b T.U32 (B.reg idx) (B.imm 4) in
  let o64 = B.cvt b T.U64 T.U32 (B.reg bytes) in
  let addr = B.add b T.U64 (B.reg base) (B.reg o64) in
  B.ld b T.Global T.F32 (B.reg addr) 0

let store_f32 b base idx v =
  let bytes = B.mul b T.U32 (B.reg idx) (B.imm 4) in
  let o64 = B.cvt b T.U64 T.U32 (B.reg bytes) in
  let addr = B.add b T.U64 (B.reg base) (B.reg o64) in
  B.st b T.Global T.F32 (B.reg addr) 0 (B.reg v)

let rec flop_chain b v n =
  if n <= 0 then v
  else
    let v' = B.mad b T.F32 (B.reg v) (B.fimm 0.9990234375) (B.fimm 0.001953125) in
    flop_chain b v' (n - 1)

let sfu_step b v =
  let a = B.unop b I.Abs T.F32 (B.reg v) in
  let a1 = B.add b T.F32 (B.reg a) (B.fimm 1.0) in
  B.unop b I.Sqrt T.F32 (B.reg a1)

let fresh_accs env naccs =
  List.init naccs (fun i ->
    B.mov env.b T.F32 (B.fimm (0.03125 *. float_of_int i)))

(* fold values into the accumulators round-robin *)
let fold_into env accs vs =
  let n = List.length accs in
  List.iteri
    (fun i v ->
       B.acc_binop env.b I.Add T.F32 (List.nth accs (i mod n)) (B.reg v))
    vs

let combine_accs env accs =
  match accs with
  | [] -> B.mov env.b T.F32 (B.fimm 0.0)
  | first :: rest ->
    List.iter (fun a -> B.acc_binop env.b I.Add T.F32 first (B.reg a)) rest;
    first

let write_result env acc = store_f32 env.b env.out64 env.gtid acc

(* One unrolled group: [mem_live] loads whose indices derive from
   [base_idx] (u32), padded to [live] simultaneously-live values by
   arithmetic on the loaded ones, then flop chains, then a fold. *)
let unrolled_group env k ~mk_value accs base_idx =
  let mem_live = min k.mem_live k.live in
  let loaded =
    List.init mem_live (fun u ->
      let un = B.mul env.b T.U32 (B.reg env.ntid) (B.imm u) in
      let raw = B.add env.b T.U32 (B.reg base_idx) (B.reg un) in
      let idx = B.binop env.b I.Rem T.U32 (B.reg raw) (B.reg env.ws) in
      mk_value u idx)
  in
  let synthesised =
    List.init (max 0 (k.live - mem_live)) (fun e ->
      let src = List.nth loaded (e mod mem_live) in
      B.mad env.b T.F32 (B.reg src)
        (B.fimm (1.0 +. (0.0078125 *. float_of_int (e mod 7))))
        (B.fimm 0.0625))
  in
  let vs = loaded @ synthesised in
  let vs =
    List.mapi
      (fun u v ->
         let v = flop_chain env.b v k.flops in
         if k.sfu_every > 0 && u mod k.sfu_every = 0 then sfu_step env.b v else v)
      vs
  in
  fold_into env accs vs

(* the standard double loop: passes x iters of an unrolled group *)
let pass_loop env k ~mk_value accs =
  B.for_loop env.b ~from:(B.imm 0) ~below:(B.reg env.passes) ~step:1 (fun p ->
    B.for_loop env.b ~from:(B.imm 0) ~below:(B.reg env.iters) ~step:1 (fun j ->
      let jl = B.mul env.b T.U32 (B.reg j) (B.imm (min k.mem_live k.live)) in
      let jn = B.mul env.b T.U32 (B.reg jl) (B.reg env.ntid) in
      let base0 = B.add env.b T.U32 (B.reg env.tid) (B.reg jn) in
      let base_idx = B.add env.b T.U32 (B.reg base0) (B.reg p) in
      unrolled_group env k ~mk_value accs base_idx))

let tiled_reuse ~name k =
  let env = prologue name in
  let accs = fresh_accs env k.naccs in
  pass_loop env k ~mk_value:(fun _ idx -> load_f32 env.b env.region idx) accs;
  let r = combine_accs env accs in
  write_result env r;
  B.finish env.b

let streaming ~name k =
  let env = prologue name in
  let accs = fresh_accs env k.naccs in
  (* fresh addresses: index by gtid so nothing is revisited; region = whole
     input, still coalesced per warp *)
  B.for_loop env.b ~from:(B.imm 0) ~below:(B.reg env.passes) ~step:1 (fun p ->
    B.for_loop env.b ~from:(B.imm 0) ~below:(B.reg env.iters) ~step:1 (fun j ->
      let pj = B.mad env.b T.U32 (B.reg p) (B.reg env.iters) (B.reg j) in
      let stride = B.mul env.b T.U32 (B.reg pj) (B.imm (min k.mem_live k.live)) in
      let sn = B.mul env.b T.U32 (B.reg stride) (B.reg env.ntid) in
      let base_idx = B.add env.b T.U32 (B.reg env.gtid) (B.reg sn) in
      unrolled_group env k
        ~mk_value:(fun _ idx -> load_f32 env.b env.region idx)
        accs base_idx));
  let r = combine_accs env accs in
  write_result env r;
  B.finish env.b

let stencil3 ~name k =
  let env = prologue name in
  let accs = fresh_accs env k.naccs in
  let mk_value _ idx =
    (* neighbours idx-1, idx, idx+1 (wrapped into the region) *)
    let wsm1 = B.sub env.b T.U32 (B.reg env.ws) (B.imm 1) in
    let left_raw = B.add env.b T.U32 (B.reg idx) (B.reg wsm1) in
    let left = B.binop env.b I.Rem T.U32 (B.reg left_raw) (B.reg env.ws) in
    let right_raw = B.add env.b T.U32 (B.reg idx) (B.imm 1) in
    let right = B.binop env.b I.Rem T.U32 (B.reg right_raw) (B.reg env.ws) in
    let vl = load_f32 env.b env.region left in
    let vc = load_f32 env.b env.region idx in
    let vr = load_f32 env.b env.region right in
    let t = B.mad env.b T.F32 (B.reg vc) (B.fimm 0.5) (B.fimm 0.0) in
    let t2 = B.mad env.b T.F32 (B.reg vl) (B.fimm 0.25) (B.reg t) in
    B.mad env.b T.F32 (B.reg vr) (B.fimm 0.25) (B.reg t2)
  in
  pass_loop env k ~mk_value accs;
  let r = combine_accs env accs in
  write_result env r;
  B.finish env.b

let shared_tile ~name ~shm_words k =
  let env = prologue name in
  let sdata = B.decl_shared env.b "sdata" T.F32 shm_words in
  let sbase = B.mov env.b T.U32 sdata in
  let shared_idx_addr idx =
    let m = B.binop env.b I.Rem T.U32 (B.reg idx) (B.imm shm_words) in
    let bytes = B.mul env.b T.U32 (B.reg m) (B.imm 4) in
    B.add env.b T.U32 (B.reg sbase) (B.reg bytes)
  in
  (* stage the tile *)
  B.for_loop env.b ~from:(B.imm 0) ~below:(B.reg env.iters) ~step:1 (fun j ->
    let jn = B.mul env.b T.U32 (B.reg j) (B.reg env.ntid) in
    let raw = B.add env.b T.U32 (B.reg env.tid) (B.reg jn) in
    let idx = B.binop env.b I.Rem T.U32 (B.reg raw) (B.reg env.ws) in
    let v = load_f32 env.b env.region idx in
    let sa = shared_idx_addr raw in
    B.st env.b T.Shared T.F32 (B.reg sa) 0 (B.reg v));
  B.bar_sync env.b;
  (* compute from shared with reuse *)
  let accs = fresh_accs env k.naccs in
  let mk_value u idx =
    ignore u;
    let sa = shared_idx_addr idx in
    B.ld env.b T.Shared T.F32 (B.reg sa) 0
  in
  pass_loop env k ~mk_value accs;
  B.bar_sync env.b;
  let r = combine_accs env accs in
  write_result env r;
  B.finish env.b

let reduction ~name ~shm_words k =
  let env = prologue name in
  let sdata = B.decl_shared env.b "sdata" T.F32 shm_words in
  let sbase = B.mov env.b T.U32 sdata in
  let accs = fresh_accs env k.naccs in
  pass_loop env k ~mk_value:(fun _ idx -> load_f32 env.b env.region idx) accs;
  let partial = combine_accs env accs in
  (* sdata[tid] = partial *)
  let my_bytes = B.mul env.b T.U32 (B.reg env.tid) (B.imm 4) in
  let my_addr = B.add env.b T.U32 (B.reg sbase) (B.reg my_bytes) in
  B.st env.b T.Shared T.F32 (B.reg my_addr) 0 (B.reg partial);
  B.bar_sync env.b;
  (* tree reduction: s = ntid/2; while s > 0 { if tid < s: add; bar } *)
  let s = B.binop env.b I.Shr T.U32 (B.reg env.ntid) (B.imm 1) in
  let head = B.fresh_label env.b "Lred" in
  let exit = B.fresh_label env.b "Lred_done" in
  let skip = B.fresh_label env.b "Lred_skip" in
  B.label env.b head;
  let p_done = B.setp env.b I.Eq T.U32 (B.reg s) (B.imm 0) in
  B.bra_if env.b p_done exit;
  let p_act = B.setp env.b I.Lt T.U32 (B.reg env.tid) (B.reg s) in
  B.bra_ifnot env.b p_act skip;
  let other = B.add env.b T.U32 (B.reg env.tid) (B.reg s) in
  let ob = B.mul env.b T.U32 (B.reg other) (B.imm 4) in
  let oa = B.add env.b T.U32 (B.reg sbase) (B.reg ob) in
  let vo = B.ld env.b T.Shared T.F32 (B.reg oa) 0 in
  let vm = B.ld env.b T.Shared T.F32 (B.reg my_addr) 0 in
  let vs = B.add env.b T.F32 (B.reg vm) (B.reg vo) in
  B.st env.b T.Shared T.F32 (B.reg my_addr) 0 (B.reg vs);
  B.label env.b skip;
  B.bar_sync env.b;
  B.acc_binop env.b I.Shr T.U32 s (B.imm 1);
  B.bra env.b head;
  B.label env.b exit;
  (* thread 0 writes the block result; every thread writes its partial *)
  let p0 = B.setp env.b I.Eq T.U32 (B.reg env.tid) (B.imm 0) in
  let skip2 = B.fresh_label env.b "Lw0" in
  B.bra_ifnot env.b p0 skip2;
  let total = B.ld env.b T.Shared T.F32 (B.reg sbase) 0 in
  store_f32 env.b env.out64 env.ctaid total;
  B.label env.b skip2;
  B.finish env.b

let gather ~name k =
  let env = prologue ~extra_params:[ ("aux", T.U64) ] name in
  let aux64 = B.ld_param env.b T.U64 (I.Oparam "aux") in
  let accs = fresh_accs env k.naccs in
  let mk_value _ idx =
    (* data-dependent index: pointer-chase one level through aux; the
       scatter is bounded to a 256-word window around the structured
       index, as sparse formats keep some locality per row *)
    let ib = B.mul env.b T.U32 (B.reg idx) (B.imm 4) in
    let i64 = B.cvt env.b T.U64 T.U32 (B.reg ib) in
    let ia = B.add env.b T.U64 (B.reg aux64) (B.reg i64) in
    let link = B.ld env.b T.Global T.U32 (B.reg ia) 0 in
    let hi = B.binop env.b I.And T.U32 (B.reg idx) (B.imm 0xFFFFFF00) in
    let lo = B.binop env.b I.And T.U32 (B.reg link) (B.imm 255) in
    let mixed = B.binop env.b I.Or T.U32 (B.reg hi) (B.reg lo) in
    let idx2 = B.binop env.b I.Rem T.U32 (B.reg mixed) (B.reg env.ws) in
    load_f32 env.b env.region idx2
  in
  pass_loop env k ~mk_value accs;
  (* divergent extra work for "heavy" threads *)
  let bit = B.binop env.b I.And T.U32 (B.reg env.tid) (B.imm 3) in
  let p = B.setp env.b I.Eq T.U32 (B.reg bit) (B.imm 0) in
  let skip = B.fresh_label env.b "Lg_skip" in
  B.bra_ifnot env.b p skip;
  (match accs with
   | a :: _ ->
     let extra = sfu_step env.b a in
     B.acc_binop env.b I.Add T.F32 a (B.reg extra)
   | [] -> ());
  B.label env.b skip;
  let r = combine_accs env accs in
  write_result env r;
  B.finish env.b
