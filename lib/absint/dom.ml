(* Abstract domains: intervals (saturating native ints with
   min_int/max_int as the infinities), affine forms in tid/ctaid over
   the 2^64 ring, and a uniformity bit. *)

module Itv = struct
  type t =
    { lo : int
    ; hi : int
    }

  let ninf = min_int
  let pinf = max_int
  let top = { lo = ninf; hi = pinf }
  let is_top t = t.lo = ninf && t.hi = pinf
  let const n = { lo = n; hi = n }

  let range lo hi =
    if lo > hi then invalid_arg "Itv.range";
    { lo; hi }

  let is_fin x = x <> ninf && x <> pinf

  let singleton t = if t.lo = t.hi && is_fin t.lo then Some t.lo else None

  let contains t (x : int64) =
    (t.lo = ninf || Int64.compare (Int64.of_int t.lo) x <= 0)
    && (t.hi = pinf || Int64.compare x (Int64.of_int t.hi) <= 0)

  let subset a b = a.lo >= b.lo && a.hi <= b.hi
  let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

  let widen old next =
    { lo = (if next.lo < old.lo then ninf else old.lo)
    ; hi = (if next.hi > old.hi then pinf else old.hi)
    }

  (* standard interval narrowing: only refine infinite bounds *)
  let narrow old refined =
    { lo = (if old.lo = ninf then refined.lo else old.lo)
    ; hi = (if old.hi = pinf then refined.hi else old.hi)
    }

  let equal a b = a.lo = b.lo && a.hi = b.hi

  (* saturating bound arithmetic *)
  let sat_add a b =
    if a = ninf || b = ninf then ninf
    else if a = pinf || b = pinf then pinf
    else
      let s = a + b in
      if a > 0 && b > 0 && s < 0 then pinf
      else if a < 0 && b < 0 && s >= 0 then ninf
      else s

  let sat_neg a = if a = ninf then pinf else if a = pinf then ninf else -a

  let sat_mul a b =
    if a = 0 || b = 0 then 0
    else if not (is_fin a && is_fin b) then
      if a < 0 <> (b < 0) then ninf else pinf
    else
      let p = a * b in
      if p / b <> a then if a < 0 <> (b < 0) then ninf else pinf else p

  let add a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
  let neg a = { lo = sat_neg a.hi; hi = sat_neg a.lo }
  let sub a b = add a (neg b)

  let mul a b =
    let c1 = sat_mul a.lo b.lo
    and c2 = sat_mul a.lo b.hi
    and c3 = sat_mul a.hi b.lo
    and c4 = sat_mul a.hi b.hi in
    { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }

  let magnitude a =
    if not (is_fin a.lo && is_fin a.hi) then pinf else max (abs a.lo) (abs a.hi)

  (* truncated division; x/0 = 0 in the Value semantics *)
  let div a b =
    match singleton b with
    | Some c when c <> 0 && is_fin a.lo && is_fin a.hi ->
      let q1 = a.lo / c and q2 = a.hi / c in
      { lo = min q1 q2; hi = max q1 q2 }
    | _ ->
      let m = magnitude a in
      { lo = sat_neg m; hi = m }

  (* truncated remainder: sign follows the dividend; x rem 0 = 0 *)
  let rem a b =
    let m =
      let mb = magnitude b in
      let bound = if mb = pinf then pinf else max 0 (mb - 1) in
      min (magnitude a) bound
    in
    { lo = (if a.lo < 0 then sat_neg m else 0); hi = (if a.hi > 0 then m else 0) }

  let min_ a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
  let max_ a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

  let abs_ a =
    if a.lo >= 0 then a
    else if a.hi <= 0 then neg a
    else { lo = 0; hi = max (sat_neg a.lo) a.hi }

  (* lognot x = -x - 1 exactly *)
  let lognot a = sub (const (-1)) a

  let logand a b =
    if a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = min a.hi b.hi } else top

  (* smallest 2^k - 1 >= n *)
  let up_mask n =
    if n = pinf then pinf
    else begin
      let m = ref 1 in
      while !m - 1 < n && !m > 0 do
        m := !m lsl 1
      done;
      if !m <= 0 then pinf else !m - 1
    end

  let logor a b =
    if a.lo >= 0 && b.lo >= 0 then
      { lo = max a.lo b.lo; hi = up_mask (max a.hi b.hi) }
    else top

  let logxor a b =
    if a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = up_mask (max a.hi b.hi) }
    else top

  let shl a b =
    if b.lo >= 0 && b.hi <= 61 then
      mul a { lo = 1 lsl b.lo; hi = 1 lsl b.hi }
    else top

  (* arithmetic shift; sound for the value semantics only when the
     operand is known non-negative or the type is signed *)
  let shr ~signed a b =
    if b.lo < 0 || b.hi > 63 then top
    else if (not signed) && a.lo < 0 then top
    else begin
      let sh x s = if is_fin x then x asr s else x in
      let c1 = sh a.lo b.lo
      and c2 = sh a.lo b.hi
      and c3 = sh a.hi b.lo
      and c4 = sh a.hi b.hi in
      { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }
    end

  let pp fmt t =
    let b fmt x =
      if x = ninf then Format.pp_print_string fmt "-oo"
      else if x = pinf then Format.pp_print_string fmt "+oo"
      else Format.pp_print_int fmt x
    in
    Format.fprintf fmt "[%a,%a]" b t.lo b t.hi
end

type base =
  | Sym of string
  | Param of string

type aff =
  { sym : base option
  ; tid : int
  ; cta : int
  ; base : int
  ; exact : bool
  }

let aff_opaque = { sym = None; tid = 0; cta = 0; base = 0; exact = false }

(* Coefficients are kept well inside the native-int range so that form
   arithmetic (performed below with an explicit overflow check) can
   never wrap silently; a form whose coefficients would escape the cap
   degrades to opaque instead of lying. *)
let aff_cap = 1 lsl 40
let aff_fits n = n >= -aff_cap && n <= aff_cap

let aff_norm f =
  if (not f.exact) || (aff_fits f.tid && aff_fits f.cta && aff_fits f.base)
  then f
  else aff_opaque

let aff_const n =
  if aff_fits n then { sym = None; tid = 0; cta = 0; base = n; exact = true }
  else aff_opaque

let aff_sym s = { sym = Some s; tid = 0; cta = 0; base = 0; exact = true }
let aff_tid = { sym = None; tid = 1; cta = 0; base = 0; exact = true }
let aff_ctaid = { sym = None; tid = 0; cta = 1; base = 0; exact = true }

let aff_equal a b =
  a.exact && b.exact && a.sym = b.sym && a.tid = b.tid && a.cta = b.cta
  && a.base = b.base

let aff_join a b = if aff_equal a b then a else aff_opaque

let aff_add a b =
  if not (a.exact && b.exact) then aff_opaque
  else
    match (a.sym, b.sym) with
    | Some _, Some _ -> aff_opaque
    | s, None | None, s ->
      aff_norm
        { sym = s
        ; tid = a.tid + b.tid
        ; cta = a.cta + b.cta
        ; base = a.base + b.base
        ; exact = true
        }

let aff_sub a b =
  if not (a.exact && b.exact) || b.sym <> None then aff_opaque
  else
    aff_norm
      { a with
        tid = a.tid - b.tid
      ; cta = a.cta - b.cta
      ; base = a.base - b.base
      }

(* multiply with an Int64 intermediate: capped inputs times capped
   inputs can overflow a native int, so check before narrowing back *)
let mul_chk a b =
  let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
  if
    Int64.compare p (Int64.of_int aff_cap) <= 0
    && Int64.compare (Int64.of_int (-aff_cap)) p <= 0
  then Some (Int64.to_int p)
  else None

let aff_scale a c =
  if not a.exact || a.sym <> None then aff_opaque
  else
    match (mul_chk a.tid c, mul_chk a.cta c, mul_chk a.base c) with
    | Some tid, Some cta, Some base -> { a with tid; cta; base }
    | _ -> aff_opaque

let aff_mul a b =
  if not (a.exact && b.exact) then aff_opaque
  else if a.sym = None && a.tid = 0 && a.cta = 0 then aff_scale b a.base
  else if b.sym = None && b.tid = 0 && b.cta = 0 then aff_scale a b.base
  else aff_opaque

let decl_sym f =
  match f.sym with
  | Some (Sym s) when f.exact -> Some s
  | _ -> None

type v =
  { itv : Itv.t
  ; aff : aff
  ; uni : bool
  }

let top = { itv = Itv.top; aff = aff_opaque; uni = false }
let const n = { itv = Itv.const n; aff = aff_const n; uni = true }

let join a b =
  { itv = Itv.join a.itv b.itv; aff = aff_join a.aff b.aff; uni = a.uni && b.uni }

let widen a b =
  { itv = Itv.widen a.itv b.itv; aff = aff_join a.aff b.aff; uni = a.uni && b.uni }

let narrow a b =
  { itv = Itv.narrow a.itv b.itv; aff = a.aff; uni = a.uni }

let equal a b =
  Itv.equal a.itv b.itv
  && a.aff = b.aff
  && a.uni = b.uni

let pp fmt v =
  Format.fprintf fmt "%a%s%s" Itv.pp v.itv
    (if v.aff.exact then
       Printf.sprintf " aff(%s%d*tid+%d*cta+%d)"
         (match v.aff.sym with
          | Some (Sym s) -> s ^ "+"
          | Some (Param p) -> "param:" ^ p ^ "+"
          | None -> "")
         v.aff.tid v.aff.cta v.aff.base
     else "")
    (if v.uni then " uni" else "")

let type_range (ty : Ptx.Types.scalar) =
  match ty with
  | Ptx.Types.Pred -> Itv.range 0 1
  | Ptx.Types.B8 -> Itv.range 0 255
  | Ptx.Types.U16 | Ptx.Types.B16 -> Itv.range 0 65535
  | Ptx.Types.S16 -> Itv.range (-32768) 32767
  | Ptx.Types.U32 | Ptx.Types.B32 -> Itv.range 0 0xFFFFFFFF
  | Ptx.Types.S32 -> Itv.range (-0x80000000) 0x7FFFFFFF
  | Ptx.Types.U64 | Ptx.Types.S64 | Ptx.Types.B64 | Ptx.Types.F32
  | Ptx.Types.F64 ->
    Itv.top

let truncate ty v =
  let rng = type_range ty in
  match ty with
  | Ptx.Types.U64 | Ptx.Types.S64 | Ptx.Types.B64 ->
    (* a 64-bit truncation is the identity on bits; the affine form is
       already mod-2^64, so it survives a potential wrap. Saturated
       interval bounds stand for the infinities and stay sound. *)
    v
  | Ptx.Types.F32 | Ptx.Types.F64 -> { v with itv = Itv.top; aff = aff_opaque }
  | _ ->
    if Itv.subset v.itv rng then v
    else { v with itv = rng; aff = aff_opaque }
