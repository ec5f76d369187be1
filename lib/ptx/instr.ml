type operand =
  | Oreg of Reg.t
  | Oimm of int64
  | Ofimm of float
  | Ospecial of Reg.special
  | Osym of string
  | Oparam of string

type address =
  { base : operand
  ; offset : int
  }

type binop =
  | Add
  | Sub
  | Mul_lo
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr

type unop =
  | Neg
  | Not
  | Abs
  | Sqrt
  | Rcp
  | Ex2
  | Lg2

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type t =
  | Mov of Types.scalar * Reg.t * operand
  | Binop of binop * Types.scalar * Reg.t * operand * operand
  | Mad of Types.scalar * Reg.t * operand * operand * operand
  | Unop of unop * Types.scalar * Reg.t * operand
  | Cvt of Types.scalar * Types.scalar * Reg.t * operand
  | Setp of cmp * Types.scalar * Reg.t * operand * operand
  | Selp of Types.scalar * Reg.t * operand * operand * Reg.t
  | Ld of Types.space * Types.scalar * Reg.t * address
  | St of Types.space * Types.scalar * address * operand
  | Bra of string
  | Bra_pred of Reg.t * bool * string
  | Bar_sync
  | Ret

let operand_regs = function
  | Oreg r -> [ r ]
  | Oimm _ | Ofimm _ | Ospecial _ | Osym _ | Oparam _ -> []

let address_regs a = operand_regs a.base

let defs = function
  | Mov (_, d, _)
  | Binop (_, _, d, _, _)
  | Mad (_, d, _, _, _)
  | Unop (_, _, d, _)
  | Cvt (_, _, d, _)
  | Setp (_, _, d, _, _)
  | Selp (_, d, _, _, _)
  | Ld (_, _, d, _) -> [ d ]
  | St _ | Bra _ | Bra_pred _ | Bar_sync | Ret -> []

let uses = function
  | Mov (_, _, a) | Unop (_, _, _, a) | Cvt (_, _, _, a) -> operand_regs a
  | Binop (_, _, _, a, b) | Setp (_, _, _, a, b) ->
    operand_regs a @ operand_regs b
  | Mad (_, _, a, b, c) ->
    operand_regs a @ operand_regs b @ operand_regs c
  | Selp (_, _, a, b, p) -> operand_regs a @ operand_regs b @ [ p ]
  | Ld (_, _, _, addr) -> address_regs addr
  | St (_, _, addr, v) -> address_regs addr @ operand_regs v
  | Bra _ -> []
  | Bra_pred (p, _, _) -> [ p ]
  | Bar_sync | Ret -> []

let is_control = function
  | Bra _ | Bra_pred _ | Ret -> true
  | Mov _ | Binop _ | Mad _ | Unop _ | Cvt _ | Setp _ | Selp _ | Ld _ | St _
  | Bar_sync -> false

let is_barrier = function
  | Bar_sync -> true
  | Mov _ | Binop _ | Mad _ | Unop _ | Cvt _ | Setp _ | Selp _ | Ld _ | St _
  | Bra _ | Bra_pred _ | Ret -> false

let branch_target = function
  | Bra l | Bra_pred (_, _, l) -> Some l
  | Mov _ | Binop _ | Mad _ | Unop _ | Cvt _ | Setp _ | Selp _ | Ld _ | St _
  | Bar_sync | Ret -> None

let falls_through = function
  | Bra _ | Ret -> false
  | Bra_pred _ | Mov _ | Binop _ | Mad _ | Unop _ | Cvt _ | Setp _ | Selp _
  | Ld _ | St _ | Bar_sync -> true

let is_store = function
  | St _ -> true
  | Mov _ | Binop _ | Mad _ | Unop _ | Cvt _ | Setp _ | Selp _ | Ld _ | Bra _
  | Bra_pred _ | Bar_sync | Ret -> false

let map_operand f = function
  | Oreg r -> Oreg (f r)
  | (Oimm _ | Ofimm _ | Ospecial _ | Osym _ | Oparam _) as o -> o

let map_address f a = { a with base = map_operand f a.base }

let map_regs f = function
  | Mov (t, d, a) -> Mov (t, f d, map_operand f a)
  | Binop (op, t, d, a, b) ->
    Binop (op, t, f d, map_operand f a, map_operand f b)
  | Mad (t, d, a, b, c) ->
    Mad (t, f d, map_operand f a, map_operand f b, map_operand f c)
  | Unop (op, t, d, a) -> Unop (op, t, f d, map_operand f a)
  | Cvt (dt, st, d, a) -> Cvt (dt, st, f d, map_operand f a)
  | Setp (c, t, d, a, b) -> Setp (c, t, f d, map_operand f a, map_operand f b)
  | Selp (t, d, a, b, p) -> Selp (t, f d, map_operand f a, map_operand f b, f p)
  | Ld (s, t, d, addr) -> Ld (s, t, f d, map_address f addr)
  | St (s, t, addr, v) -> St (s, t, map_address f addr, map_operand f v)
  | Bra l -> Bra l
  | Bra_pred (p, sense, l) -> Bra_pred (f p, sense, l)
  | Bar_sync -> Bar_sync
  | Ret -> Ret

let map_def f = function
  | Mov (t, d, a) -> Mov (t, f d, a)
  | Binop (op, t, d, a, b) -> Binop (op, t, f d, a, b)
  | Mad (t, d, a, b, c) -> Mad (t, f d, a, b, c)
  | Unop (op, t, d, a) -> Unop (op, t, f d, a)
  | Cvt (dt, st, d, a) -> Cvt (dt, st, f d, a)
  | Setp (c, t, d, a, b) -> Setp (c, t, f d, a, b)
  | Selp (t, d, a, b, p) -> Selp (t, f d, a, b, p)
  | Ld (s, t, d, addr) -> Ld (s, t, f d, addr)
  | (St _ | Bra _ | Bra_pred _ | Bar_sync | Ret) as i -> i

type op_class =
  | Alu
  | Alu_heavy
  | Sfu
  | Mem_global
  | Mem_local
  | Mem_shared
  | Mem_const_param
  | Ctrl
  | Barrier

let classify_binop op ty =
  match op with
  | Div | Rem -> Alu_heavy
  | Add | Sub | Mul_lo | Min | Max | And | Or | Xor | Shl | Shr ->
    (match ty with
     | Types.F64 -> Alu_heavy
     | Types.U16 | Types.U32 | Types.U64 | Types.S16 | Types.S32 | Types.S64
     | Types.F32 | Types.B8 | Types.B16 | Types.B32 | Types.B64 | Types.Pred
       -> Alu)

let classify = function
  | Mov _ | Cvt _ | Setp _ | Selp _ -> Alu
  | Binop (op, ty, _, _, _) -> classify_binop op ty
  | Mad (ty, _, _, _, _) ->
    (match ty with
     | Types.F64 -> Alu_heavy
     | Types.U16 | Types.U32 | Types.U64 | Types.S16 | Types.S32 | Types.S64
     | Types.F32 | Types.B8 | Types.B16 | Types.B32 | Types.B64 | Types.Pred
       -> Alu)
  | Unop (op, _, _, _) ->
    (match op with
     | Sqrt | Rcp | Ex2 | Lg2 -> Sfu
     | Neg | Not | Abs -> Alu)
  | Ld (s, _, _, _) | St (s, _, _, _) ->
    (match s with
     | Types.Global -> Mem_global
     | Types.Local -> Mem_local
     | Types.Shared -> Mem_shared
     | Types.Param | Types.Const -> Mem_const_param
     | Types.Reg -> Alu)
  | Bra _ | Bra_pred _ | Ret -> Ctrl
  | Bar_sync -> Barrier

let equal (a : t) (b : t) = a = b

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul_lo -> "mul.lo"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let unop_to_string = function
  | Neg -> "neg"
  | Not -> "not"
  | Abs -> "abs"
  | Sqrt -> "sqrt"
  | Rcp -> "rcp"
  | Ex2 -> "ex2"
  | Lg2 -> "lg2"

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

(* The one emitter of the instruction syntax, shared by the kernel
   printer and the diagnostics; [float] spells float immediates. *)
let emit ~float b i =
  let str = Buffer.add_string b in
  let reg = Reg.add_name b in
  let operand = function
    | Oreg r -> reg r
    | Oimm n -> str (Int64.to_string n)
    | Ofimm f -> str (float f)
    | Ospecial s -> str (Reg.special_to_string s)
    | Osym s | Oparam s -> str s
  in
  let op o = str ", "; operand o in
  let ty t = Buffer.add_char b '.'; str (Types.scalar_to_string t); Buffer.add_char b ' ' in
  let space s = Buffer.add_char b '.'; str (Types.space_to_string s) in
  let address a =
    Buffer.add_char b '[';
    operand a.base;
    if a.offset <> 0 then (Buffer.add_char b '+'; str (string_of_int a.offset));
    Buffer.add_char b ']'
  in
  (match i with
   | Mov (t, d, a) -> str "mov"; ty t; reg d; op a
   | Unop (o, t, d, a) -> str (unop_to_string o); ty t; reg d; op a
   | Binop (o, t, d, a, c) -> str (binop_to_string o); ty t; reg d; op a; op c
   | Mad (t, d, a, c, e) -> str "mad.lo"; ty t; reg d; op a; op c; op e
   | Cvt (dt, st, d, a) ->
     str "cvt."; str (Types.scalar_to_string dt); ty st; reg d; op a
   | Setp (c, t, d, a, e) ->
     str "setp."; str (cmp_to_string c); ty t; reg d; op a; op e
   | Selp (t, d, a, c, p) -> str "selp"; ty t; reg d; op a; op c; op (Oreg p)
   | Ld (s, t, d, a) -> str "ld"; space s; ty t; reg d; str ", "; address a
   | St (s, t, a, v) -> str "st"; space s; ty t; address a; op v
   | Bra l -> str "bra "; str l
   | Bra_pred (p, sense, l) ->
     str (if sense then "@" else "@!"); reg p; str " bra "; str l
   | Bar_sync -> str "bar.sync 0"
   | Ret -> str "ret");
  Buffer.add_char b ';'

let to_string i =
  let b = Buffer.create 48 in
  emit ~float:(Printf.sprintf "%h") b i;
  Buffer.contents b

let pp fmt i = Format.pp_print_string fmt (to_string i)
