type file =
  | Vector
  | Scalar
  | Pred

type reg =
  { file : file
  ; idx : int
  ; ty : Ptx.Types.scalar
  }

type src =
  | Rsrc of reg
  | Imm of int64
  | Fimm of float
  | Spec of Ptx.Reg.special
  | Param of int
  | Loc of int

type addr =
  { abase : src
  ; aoffset : int
  }

type insn =
  | Mov of Ptx.Types.scalar * reg * src
  | Binop of Ptx.Instr.binop * Ptx.Types.scalar * reg * src * src
  | Mad of Ptx.Types.scalar * reg * src * src * src
  | Unop of Ptx.Instr.unop * Ptx.Types.scalar * reg * src
  | Cvt of Ptx.Types.scalar * Ptx.Types.scalar * reg * src
  | Setp of Ptx.Instr.cmp * Ptx.Types.scalar * reg * src * src
  | Selp of Ptx.Types.scalar * reg * src * src * reg
  | Ld of Ptx.Types.space * Ptx.Types.scalar * reg * addr
  | St of Ptx.Types.space * Ptx.Types.scalar * addr * src
  | Bra of int
  | Bra_pred of reg * bool * int
  | Bar
  | Exit

let units r =
  match Ptx.Types.reg_class r.ty with
  | Ptx.Types.C64 -> 2
  | Ptx.Types.C32 | Ptx.Types.Cpred -> 1

let equal_reg a b =
  a.file = b.file && a.idx = b.idx && Ptx.Types.equal_scalar a.ty b.ty

let src_regs = function
  | Rsrc r -> [ r ]
  | Imm _ | Fimm _ | Spec _ | Param _ | Loc _ -> []

let addr_regs a = src_regs a.abase

let defs = function
  | Mov (_, d, _)
  | Binop (_, _, d, _, _)
  | Mad (_, d, _, _, _)
  | Unop (_, _, d, _)
  | Cvt (_, _, d, _)
  | Setp (_, _, d, _, _)
  | Selp (_, d, _, _, _)
  | Ld (_, _, d, _) -> [ d ]
  | St _ | Bra _ | Bra_pred _ | Bar | Exit -> []

let uses = function
  | Mov (_, _, a) | Unop (_, _, _, a) | Cvt (_, _, _, a) -> src_regs a
  | Binop (_, _, _, a, b) | Setp (_, _, _, a, b) -> src_regs a @ src_regs b
  | Mad (_, _, a, b, c) -> src_regs a @ src_regs b @ src_regs c
  | Selp (_, _, a, b, p) -> src_regs a @ src_regs b @ [ p ]
  | Ld (_, _, _, a) -> addr_regs a
  | St (_, _, a, v) -> addr_regs a @ src_regs v
  | Bra _ -> []
  | Bra_pred (p, _, _) -> [ p ]
  | Bar | Exit -> []

let succs ins ~pc ~code_len =
  let next = if pc + 1 < code_len then [ pc + 1 ] else [] in
  match ins with
  | Bra t -> [ t ]
  | Bra_pred (_, _, t) -> if List.mem t next then next else t :: next
  | Exit -> []
  | Mov _ | Binop _ | Mad _ | Unop _ | Cvt _ | Setp _ | Selp _ | Ld _ | St _
  | Bar -> next

let file_to_string = function
  | Vector -> "vector"
  | Scalar -> "scalar"
  | Pred -> "pred"

let reg_name r =
  let prefix =
    match r.file with
    | Vector -> "R"
    | Scalar -> "SR"
    | Pred -> "P"
  in
  if units r = 2 then Printf.sprintf "%s%d:%s%d" prefix r.idx prefix (r.idx + 1)
  else Printf.sprintf "%s%d" prefix r.idx

let pp_reg fmt r = Format.pp_print_string fmt (reg_name r)

let pp_src fmt = function
  | Rsrc r -> pp_reg fmt r
  | Imm i -> Format.fprintf fmt "%Ld" i
  | Fimm f -> Format.fprintf fmt "%h" f
  | Spec s -> Format.pp_print_string fmt (Ptx.Reg.special_to_string s)
  | Param i -> Format.fprintf fmt "c[param][%d]" i
  | Loc off -> Format.fprintf fmt "c[local][%d]" off

let pp_addr fmt a =
  if a.aoffset = 0 then Format.fprintf fmt "[%a]" pp_src a.abase
  else Format.fprintf fmt "[%a+%d]" pp_src a.abase a.aoffset

let ts = Ptx.Types.scalar_to_string

let pp_insn fmt = function
  | Mov (ty, d, a) -> Format.fprintf fmt "MOV.%s %a, %a" (ts ty) pp_reg d pp_src a
  | Binop (op, ty, d, a, b) ->
    let name =
      match op with
      | Ptx.Instr.Add -> "ADD"
      | Ptx.Instr.Sub -> "SUB"
      | Ptx.Instr.Mul_lo -> "MUL"
      | Ptx.Instr.Div -> "DIV"
      | Ptx.Instr.Rem -> "REM"
      | Ptx.Instr.Min -> "MIN"
      | Ptx.Instr.Max -> "MAX"
      | Ptx.Instr.And -> "AND"
      | Ptx.Instr.Or -> "OR"
      | Ptx.Instr.Xor -> "XOR"
      | Ptx.Instr.Shl -> "SHL"
      | Ptx.Instr.Shr -> "SHR"
    in
    Format.fprintf fmt "%s.%s %a, %a, %a" name (ts ty) pp_reg d pp_src a pp_src b
  | Mad (ty, d, a, b, c) ->
    Format.fprintf fmt "MAD.%s %a, %a, %a, %a" (ts ty) pp_reg d pp_src a
      pp_src b pp_src c
  | Unop (op, ty, d, a) ->
    let name =
      match op with
      | Ptx.Instr.Neg -> "NEG"
      | Ptx.Instr.Not -> "NOT"
      | Ptx.Instr.Abs -> "ABS"
      | Ptx.Instr.Sqrt -> "SQRT"
      | Ptx.Instr.Rcp -> "RCP"
      | Ptx.Instr.Ex2 -> "EX2"
      | Ptx.Instr.Lg2 -> "LG2"
    in
    Format.fprintf fmt "%s.%s %a, %a" name (ts ty) pp_reg d pp_src a
  | Cvt (dt, st, d, a) ->
    Format.fprintf fmt "CVT.%s.%s %a, %a" (ts dt) (ts st) pp_reg d pp_src a
  | Setp (c, ty, d, a, b) ->
    let name =
      match c with
      | Ptx.Instr.Eq -> "EQ"
      | Ptx.Instr.Ne -> "NE"
      | Ptx.Instr.Lt -> "LT"
      | Ptx.Instr.Le -> "LE"
      | Ptx.Instr.Gt -> "GT"
      | Ptx.Instr.Ge -> "GE"
    in
    Format.fprintf fmt "ISETP.%s.%s %a, %a, %a" name (ts ty) pp_reg d pp_src a
      pp_src b
  | Selp (ty, d, a, b, p) ->
    Format.fprintf fmt "SEL.%s %a, %a, %a, %a" (ts ty) pp_reg d pp_src a
      pp_src b pp_reg p
  | Ld (sp, ty, d, a) ->
    Format.fprintf fmt "LD.%s.%s %a, %a"
      (Ptx.Types.space_to_string sp)
      (ts ty) pp_reg d pp_addr a
  | St (sp, ty, a, v) ->
    Format.fprintf fmt "ST.%s.%s %a, %a"
      (Ptx.Types.space_to_string sp)
      (ts ty) pp_addr a pp_src v
  | Bra t -> Format.fprintf fmt "BRA %d" t
  | Bra_pred (p, sense, t) ->
    Format.fprintf fmt "@%s%a BRA %d" (if sense then "" else "!") pp_reg p t
  | Bar -> Format.pp_print_string fmt "BAR.SYNC"
  | Exit -> Format.pp_print_string fmt "EXIT"

let insn_to_string i = Format.asprintf "%a" pp_insn i
