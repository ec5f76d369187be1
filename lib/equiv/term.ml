open Ptx
module V = Gpusim.Value
module Dom = Absint.Dom

type lspace =
  | LGlobal
  | LShared
  | LLocal

type t =
  | Cst of int64 * bool
  | Var of int * Types.scalar
  | Special of Reg.special
  | ParamV of string * bool
  | SymLocal of string
  | Bin of Instr.binop * Types.scalar * t * t
  | Un of Instr.unop * Types.scalar * t
  | MadT of Types.scalar * t * t * t
  | CmpT of Instr.cmp * Types.scalar * t * t
  | SelT of Types.scalar * t * t * t
  | CvtT of Types.scalar * Types.scalar * t
  | Trunc of Types.scalar * t
  | Load of load

and load =
  { lsp : lspace
  ; lty : Types.scalar
  ; ver : int
  ; addr : t
  ; laff : Dom.aff
  ; lsing : int option
  }

let rec tag = function
  | Cst (_, f) -> f
  | Var (_, ty) -> Types.is_float ty
  | Special _ -> false
  | ParamV (_, f) -> f
  | SymLocal _ -> false
  | Bin (_, ty, _, _) | Un (_, ty, _) | MadT (ty, _, _, _) -> Types.is_float ty
  | CmpT _ -> false
  | SelT (ty, _, _, _) -> Types.is_float ty
  | CvtT (dst, _, _) -> Types.is_float dst
  | Trunc (ty, t) ->
    (* [of_bits ty] after truncation: tagged per the target type, except
       that truncation to a float type of a float value keeps the tag
       (it is one anyway) — so simply the target's tag. *)
    ignore (tag t);
    Types.is_float ty
  | Load { lty; _ } -> Types.is_float lty

let cst i = Cst (i, false)
let cst_int i = Cst (Int64.of_int i, false)
let fcst f = Cst (Int64.bits_of_float f, true)

(* Value footprint: what we statically know about the patterns a term can
   take, used to collapse no-op truncations. [Fp_ty ty] means "pattern is
   a fixpoint of [truncate_bits ty ~isf:false]" (every register write and
   memory store truncates, so stored patterns satisfy their type's
   invariant). *)
type footprint =
  | Fp_ty of Types.scalar
  | Fp_bool  (** 0 or 1 *)
  | Fp_nonneg31  (** non-negative, < 2^31 (launch specials) *)
  | Fp_any

let footprint = function
  | Cst _ -> Fp_any (* constants are folded directly, never queried *)
  | Var (_, ty) -> Fp_ty ty
  | Special _ -> Fp_nonneg31
  | ParamV _ -> Fp_any
  | SymLocal _ -> Fp_any
  | Bin (_, ty, _, _) | Un (_, ty, _) | MadT (ty, _, _, _) -> Fp_ty ty
  | CmpT _ -> Fp_bool
  | SelT (ty, _, _, _) -> Fp_ty ty
  | CvtT (dst, _, _) -> Fp_ty dst
  | Trunc (ty, _) -> Fp_ty ty
  | Load { lty; _ } -> Fp_ty lty

let int_width = function
  | Types.U16 | Types.S16 | Types.B16 -> 2
  | Types.U32 | Types.S32 | Types.B32 -> 4
  | Types.U64 | Types.S64 | Types.B64 -> 8
  | Types.B8 -> 1
  | Types.Pred -> 1
  | Types.F32 | Types.F64 -> 8

(* Would [truncate_bits ty] provably leave the term's pattern (and tag)
   unchanged? *)
let fits ty t =
  match ty with
  | Types.U64 | Types.S64 | Types.B64 -> not (tag t)
  | Types.F64 -> tag t
  | Types.F32 -> footprint t = Fp_ty Types.F32
  | Types.Pred -> (
    match footprint t with
    | Fp_bool | Fp_ty Types.Pred -> true
    | _ -> false)
  | _ -> (
    (* sub-64-bit integer target *)
    let w = int_width ty and signed = Types.is_signed ty in
    match footprint t with
    | Fp_bool -> true
    | Fp_ty Types.Pred -> true
    | Fp_nonneg31 -> w >= 4
    | Fp_ty ty' when (not (Types.is_float ty')) && ty' <> Types.Pred ->
      let w' = int_width ty' and signed' = Types.is_signed ty' in
      if signed then (signed' && w' <= w) || ((not signed') && w' < w)
      else (not signed') && w' <= w
    | _ -> false)

let mk_trunc ty t =
  match t with
  | Cst (bits, f) -> Cst (V.truncate_bits ty ~isf:f bits, Types.is_float ty)
  | _ ->
    if fits ty t && Types.is_float ty = tag t then t
    else if fits ty t then Trunc (ty, t) (* pattern same, tag flips *)
    else Trunc (ty, t)

let mk_bin op ty a b =
  match (a, b) with
  | Cst (x, _), Cst (y, _) when not (Types.is_float ty) ->
    Cst (V.binop_bits op ty x y, false)
  | Cst (x, _), Cst (y, _) -> Cst (V.binop_bits op ty x y, true)
  | _, Cst (0L, false)
    when op = Instr.Add && (ty = Types.U64 || ty = Types.S64 || ty = Types.B64)
         && not (tag a) ->
    (* x + 0 over a 64-bit ring is the identity on patterns *)
    a
  | _ -> Bin (op, ty, a, b)

let mk_un op ty a =
  match a with
  | Cst (x, _) -> Cst (V.unop_bits op ty x, Types.is_float ty)
  | _ -> Un (op, ty, a)

let mk_mad ty a b c =
  match (a, b, c) with
  | Cst (x, _), Cst (y, _), Cst (z, _) ->
    Cst (V.mad_bits ty x y z, Types.is_float ty)
  | _ -> MadT (ty, a, b, c)

let mk_cmp cmp ty a b =
  match (a, b) with
  | Cst (x, _), Cst (y, _) ->
    Cst ((if V.compare_bits cmp ty x y then 1L else 0L), false)
  | _ -> CmpT (cmp, ty, a, b)

let mk_sel ty c a b =
  match c with
  | Cst (bits, f) ->
    if V.to_bool_bits ~isf:f bits then mk_trunc ty a else mk_trunc ty b
  | _ -> SelT (ty, c, mk_trunc ty a, mk_trunc ty b)

let mk_cvt ~dst ~src t =
  match t with
  | Cst (bits, _) -> Cst (V.convert_bits ~dst ~src bits, Types.is_float dst)
  | _ -> CvtT (dst, src, t)

let to_i64 t =
  if not (tag t) then Some t
  else
    match t with
    | Cst (bits, true) -> Some (Cst (Int64.of_float (Int64.float_of_bits bits), false))
    | _ -> None

let decided = function
  | Cst (bits, f) -> Some (V.to_bool_bits ~isf:f bits)
  | _ -> None

(* A local-frame symbol base denotes a different absolute address on each
   side once spill decls change the frame size, so exact-affine equality
   of two [Sym]-based forms is only meaningful relative to the symbol
   base — which is precisely the reading both Local-space addresses and
   Shared-space addresses need (shared offsets of common symbols agree
   across sides because new decls are appended). Callers degrade affine
   views that mix spaces before they reach a term. *)
let aff_exact_equal (a : Dom.aff) (b : Dom.aff) =
  a.Dom.exact && b.Dom.exact && Dom.aff_equal a b

let rec equal t1 t2 =
  match (t1, t2) with
  | Cst (a, fa), Cst (b, fb) -> Int64.equal a b && fa = fb
  | Var (i, _), Var (j, _) -> i = j
  | Special a, Special b -> a = b
  | ParamV (a, fa), ParamV (b, fb) -> String.equal a b && fa = fb
  | SymLocal a, SymLocal b -> String.equal a b
  | Bin (o1, ty1, a1, b1), Bin (o2, ty2, a2, b2) ->
    o1 = o2 && Types.equal_scalar ty1 ty2 && equal a1 a2 && equal b1 b2
  | Un (o1, ty1, a1), Un (o2, ty2, a2) ->
    o1 = o2 && Types.equal_scalar ty1 ty2 && equal a1 a2
  | MadT (ty1, a1, b1, c1), MadT (ty2, a2, b2, c2) ->
    Types.equal_scalar ty1 ty2 && equal a1 a2 && equal b1 b2 && equal c1 c2
  | CmpT (c1, ty1, a1, b1), CmpT (c2, ty2, a2, b2) ->
    c1 = c2 && Types.equal_scalar ty1 ty2 && equal a1 a2 && equal b1 b2
  | SelT (ty1, c1, a1, b1), SelT (ty2, c2, a2, b2) ->
    Types.equal_scalar ty1 ty2 && equal c1 c2 && equal a1 a2 && equal b1 b2
  | CvtT (d1, s1, a1), CvtT (d2, s2, a2) ->
    Types.equal_scalar d1 d2 && Types.equal_scalar s1 s2 && equal a1 a2
  | Trunc (ty1, a1), Trunc (ty2, a2) ->
    Types.equal_scalar ty1 ty2 && equal a1 a2
  | Load l1, Load l2 ->
    l1.lsp = l2.lsp
    && Types.equal_scalar l1.lty l2.lty
    && l1.ver = l2.ver
    && (equal l1.addr l2.addr
       || aff_exact_equal l1.laff l2.laff
       || match (l1.lsing, l2.lsing) with
          | Some a, Some b -> a = b
          | _ -> false)
  | _ -> false

let lspace_to_string = function
  | LGlobal -> "global"
  | LShared -> "shared"
  | LLocal -> "local"

let rec pp fmt = function
  | Cst (bits, false) -> Format.fprintf fmt "%Ld" bits
  | Cst (bits, true) -> Format.fprintf fmt "%gf" (Int64.float_of_bits bits)
  | Var (i, ty) -> Format.fprintf fmt "h%d:%s" i (Types.scalar_to_string ty)
  | Special s -> Format.fprintf fmt "%%%s" (Reg.special_to_string s)
  | ParamV (p, _) -> Format.fprintf fmt "param(%s)" p
  | SymLocal s -> Format.fprintf fmt "&local(%s)" s
  | Bin (op, ty, a, b) ->
    Format.fprintf fmt "(%s.%s %a %a)" (Instr.binop_to_string op)
      (Types.scalar_to_string ty) pp a pp b
  | Un (op, ty, a) ->
    Format.fprintf fmt "(%s.%s %a)" (Instr.unop_to_string op)
      (Types.scalar_to_string ty) pp a
  | MadT (ty, a, b, c) ->
    Format.fprintf fmt "(mad.%s %a %a %a)" (Types.scalar_to_string ty) pp a
      pp b pp c
  | CmpT (c, ty, a, b) ->
    Format.fprintf fmt "(setp.%s.%s %a %a)" (Instr.cmp_to_string c)
      (Types.scalar_to_string ty) pp a pp b
  | SelT (ty, c, a, b) ->
    Format.fprintf fmt "(selp.%s %a %a %a)" (Types.scalar_to_string ty) pp c
      pp a pp b
  | CvtT (dst, src, a) ->
    Format.fprintf fmt "(cvt.%s.%s %a)" (Types.scalar_to_string dst)
      (Types.scalar_to_string src) pp a
  | Trunc (ty, a) ->
    Format.fprintf fmt "(trunc.%s %a)" (Types.scalar_to_string ty) pp a
  | Load { lsp; lty; ver; addr; _ } ->
    Format.fprintf fmt "mem%d.%s.%s[%a]" ver (lspace_to_string lsp)
      (Types.scalar_to_string lty) pp addr

let to_string t = Format.asprintf "%a" pp t
