module A = Regalloc.Allocator

type t =
  { name : string
  ; code : Isa.insn array
  ; params : string array
  ; image : Gpusim.Image.t
  ; alloc : Regalloc.Allocator.t
  ; vector_units : int
  ; scalar_units : int
  ; pred_count : int
  }

(* 64-bit colour counts per file: colours are dense from 0 (colors_used
   = max colour + 1 and the max colour is assigned to some register of
   the kernel), so 1 + max id over the file's C64 registers re-derives
   the count from the allocated kernel alone. *)
let count64 (a : A.t) =
  Ptx.Reg.Set.fold
    (fun r ((n64v, n64s) as acc) ->
       match Ptx.Types.reg_class (Ptx.Reg.ty r) with
       | Ptx.Types.C64 ->
         if A.is_scalar_phys a r then
           (n64v, max n64s (Ptx.Reg.id r - A.scalar_color_base a + 1))
         else (max n64v (Ptx.Reg.id r + 1), n64s)
       | Ptx.Types.C32 | Ptx.Types.Cpred -> acc)
    (Ptx.Kernel.registers a.A.kernel)
    (0, 0)

let map_reg (a : A.t) ~n64v ~n64s (r : Ptx.Reg.t) =
  let ty = Ptx.Reg.ty r in
  let id = Ptx.Reg.id r in
  match Ptx.Types.reg_class ty with
  | Ptx.Types.Cpred -> { Isa.file = Isa.Pred; idx = id; ty }
  | Ptx.Types.C64 ->
    if A.is_scalar_phys a r then
      { Isa.file = Isa.Scalar; idx = 2 * (id - A.scalar_color_base a); ty }
    else { Isa.file = Isa.Vector; idx = 2 * id; ty }
  | Ptx.Types.C32 ->
    if A.is_scalar_phys a r then
      { Isa.file = Isa.Scalar
      ; idx = (2 * n64s) + (id - A.scalar_color_base a)
      ; ty
      }
    else { Isa.file = Isa.Vector; idx = (2 * n64v) + id; ty }

let run (a : A.t) =
  let kernel = a.A.kernel in
  let image = Gpusim.Image.prepare kernel in
  let flow = image.Gpusim.Image.flow in
  let n64v, n64s = count64 a in
  let reg = map_reg a ~n64v ~n64s in
  let params = Array.of_list (List.map fst kernel.Ptx.Kernel.params) in
  let param_index p =
    let rec find i =
      if i >= Array.length params then
        invalid_arg (Printf.sprintf "Machine.Lower: unknown parameter %s" p)
      else if String.equal params.(i) p then i
      else find (i + 1)
    in
    find 0
  in
  let src (op : Ptx.Instr.operand) =
    match op with
    | Ptx.Instr.Oreg r -> Isa.Rsrc (reg r)
    | Ptx.Instr.Oimm i -> Isa.Imm i
    | Ptx.Instr.Ofimm f -> Isa.Fimm f
    | Ptx.Instr.Ospecial s -> Isa.Spec s
    | Ptx.Instr.Oparam p -> Isa.Param (param_index p)
    | Ptx.Instr.Osym s ->
      (* shared symbols resolve to block-relative immediate offsets;
         local symbols stay symbolic constant-bank reads because their
         address is per-thread *)
      (match List.assoc_opt s image.Gpusim.Image.shared_offsets with
       | Some off -> Isa.Imm (Int64.of_int off)
       | None ->
         (match List.assoc_opt s image.Gpusim.Image.local_offsets with
          | Some off -> Isa.Loc off
          | None ->
            invalid_arg (Printf.sprintf "Machine.Lower: unknown symbol %s" s)))
  in
  let addr (ad : Ptx.Instr.address) =
    { Isa.abase = src ad.Ptx.Instr.base; aoffset = ad.Ptx.Instr.offset }
  in
  let target l = Cfg.Flow.target_index flow l in
  let lower_insn (ins : Ptx.Instr.t) =
    match ins with
    | Ptx.Instr.Mov (ty, d, x) -> Isa.Mov (ty, reg d, src x)
    | Ptx.Instr.Binop (op, ty, d, x, y) ->
      Isa.Binop (op, ty, reg d, src x, src y)
    | Ptx.Instr.Mad (ty, d, x, y, z) ->
      Isa.Mad (ty, reg d, src x, src y, src z)
    | Ptx.Instr.Unop (op, ty, d, x) -> Isa.Unop (op, ty, reg d, src x)
    | Ptx.Instr.Cvt (dt, st, d, x) -> Isa.Cvt (dt, st, reg d, src x)
    | Ptx.Instr.Setp (c, ty, d, x, y) ->
      Isa.Setp (c, ty, reg d, src x, src y)
    | Ptx.Instr.Selp (ty, d, x, y, p) ->
      Isa.Selp (ty, reg d, src x, src y, reg p)
    | Ptx.Instr.Ld (sp, ty, d, ad) -> Isa.Ld (sp, ty, reg d, addr ad)
    | Ptx.Instr.St (sp, ty, ad, v) -> Isa.St (sp, ty, addr ad, src v)
    | Ptx.Instr.Bra l -> Isa.Bra (target l)
    | Ptx.Instr.Bra_pred (p, sense, l) ->
      Isa.Bra_pred (reg p, sense, target l)
    | Ptx.Instr.Bar_sync -> Isa.Bar
    | Ptx.Instr.Ret -> Isa.Exit
  in
  let code = Array.map lower_insn flow.Cfg.Flow.instrs in
  (* unit spans per file, from the machine code itself *)
  let span file =
    Array.fold_left
      (fun acc ins ->
         List.fold_left
           (fun acc (r : Isa.reg) ->
              if r.Isa.file = file then max acc (r.Isa.idx + Isa.units r)
              else acc)
           acc
           (Isa.defs ins @ Isa.uses ins))
      0 code
  in
  { name = kernel.Ptx.Kernel.name
  ; code
  ; params
  ; image
  ; alloc = a
  ; vector_units = span Isa.Vector
  ; scalar_units = span Isa.Scalar
  ; pred_count = span Isa.Pred
  }

let pp fmt t =
  Format.fprintf fmt "%s: %d insns, V=%d units, S=%d units, P=%d@."
    t.name (Array.length t.code) t.vector_units t.scalar_units t.pred_count;
  Array.iteri
    (fun i ins -> Format.fprintf fmt "  /*%04d*/ %a@." i Isa.pp_insn ins)
    t.code
