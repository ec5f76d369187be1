type t =
  { kernel : Ptx.Kernel.t
  ; flow : Cfg.Flow.t
  ; reconv : int array
  ; shared_offsets : (string * int) list
  ; shared_decl_bytes : int
  ; local_offsets : (string * int) list
  ; local_frame_bytes : int
  ; code : Dcode.t
  }

let align_up x a = (x + a - 1) / a * a

let layout_decls decls space =
  let off = ref 0 in
  let offsets =
    List.filter_map
      (fun (d : Ptx.Kernel.decl) ->
         if Ptx.Types.equal_space d.dspace space then begin
           let o = align_up !off (max 1 d.dalign) in
           off := o + Ptx.Kernel.decl_bytes d;
           Some (d.dname, o)
         end
         else None)
      decls
  in
  (offsets, align_up !off 8)

let prepare (k : Ptx.Kernel.t) =
  let flow = Cfg.Flow.of_kernel k in
  let pdom = Cfg.Dominance.post_dominators flow in
  let n = Cfg.Flow.num_instrs flow in
  let reconv = Array.make (max n 1) n in
  Cfg.Flow.iter_instrs flow (fun i ins ->
    match ins with
    | Ptx.Instr.Bra_pred _ ->
      let b = flow.Cfg.Flow.block_of_instr.(i) in
      (match Cfg.Dominance.reconvergence_point flow pdom b with
       | Some pc -> reconv.(i) <- pc
       | None -> reconv.(i) <- n)
    | Ptx.Instr.Mov _ | Ptx.Instr.Binop _ | Ptx.Instr.Mad _ | Ptx.Instr.Unop _
    | Ptx.Instr.Cvt _ | Ptx.Instr.Setp _ | Ptx.Instr.Selp _ | Ptx.Instr.Ld _
    | Ptx.Instr.St _ | Ptx.Instr.Bra _ | Ptx.Instr.Bar_sync | Ptx.Instr.Ret ->
      ());
  let shared_offsets, shared_decl_bytes = layout_decls k.decls Ptx.Types.Shared in
  let local_offsets, local_frame_bytes = layout_decls k.decls Ptx.Types.Local in
  let code = Dcode.build ~flow ~reconv ~shared_offsets ~local_offsets in
  { kernel = k
  ; flow
  ; reconv
  ; shared_offsets
  ; shared_decl_bytes
  ; local_offsets
  ; local_frame_bytes
  ; code
  }

let num_instrs t = Cfg.Flow.num_instrs t.flow
let local_base = 0x4000_0000L

(* Interleave stride in 4-byte words. Two constraints: it must exceed any
   global thread id (distinct threads must never alias), and the per-slot
   stride in cache lines (stride/32) must be odd so consecutive spill
   slots spread over all cache sets instead of piling into one. *)
let interleave_stride = 321 * 32

let[@inline] local_addr t ~global_tid ~sym_offset =
  Int64.add local_base
    (Int64.of_int ((global_tid * t.local_frame_bytes) + sym_offset))

let[@inline] remap_local t ~global_tid naive =
  if global_tid >= interleave_stride then
    invalid_arg "Image.remap_local: thread id exceeds the interleave stride";
  let logical = Int64.to_int (Int64.sub naive local_base) in
  let off = logical - (global_tid * t.local_frame_bytes) in
  if off < 0 || off >= max 1 t.local_frame_bytes then
    invalid_arg "Image.remap_local: address outside the thread's local frame";
  let word = off / 4 and byte = off mod 4 in
  Int64.add local_base
    (Int64.of_int ((((word * interleave_stride) + global_tid) * 4) + byte))

(* Warp-wide forms, with lane [l]'s thread id [global_tid0 + l]; the
   per-lane code is inlined so addresses stay unboxed. *)

let local_addr_lanes t ~global_tid0 ~sym_offset ~mask ~n d doff =
  for l = 0 to n - 1 do
    if mask land (1 lsl l) <> 0 then
      Array.unsafe_set d (doff + l)
        (Int64.float_of_bits
           (local_addr t ~global_tid:(global_tid0 + l) ~sym_offset))
  done

let remap_local_lanes t ~global_tid0 ~addrs ~lanes ~n =
  for k = 0 to n - 1 do
    let global_tid = global_tid0 + Array.unsafe_get lanes k in
    Array.unsafe_set addrs k
      (Int64.float_of_bits
         (remap_local t ~global_tid
            (Int64.bits_of_float (Array.unsafe_get addrs k))))
  done

let shared_offset t name =
  match List.assoc_opt name t.shared_offsets with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Image: unknown shared symbol %s" name)
