type t =
  | I of int64
  | F of float

let zero = I 0L
let of_int i = I (Int64.of_int i)

let to_bits = function
  | I i -> i
  | F f -> Int64.bits_of_float f

let to_float = function
  | I i -> Int64.to_float i
  | F f -> f

let to_int64 = function
  | I i -> i
  | F f -> Int64.of_float f

let to_bool v = to_int64 v <> 0L

let is_f = function
  | F _ -> true
  | I _ -> false

(* ---------------------------------------------------------------------
   Bit-pattern kernels.

   A value is equivalently a 64-bit pattern [bits] plus a constructor tag
   [isf]: for [I i] the pattern is [i], for [F f] it is
   [Int64.bits_of_float f]. Both the float view and the integer-bits
   view depend only on the pattern, so almost every operation below is
   tag-insensitive; the tag matters solely for the *value* conversion
   [to_int64] (and hence [to_bool] and predicate truncation).

   Each operation is written once, as an [@inline] per-element kernel
   ([int_op], [float_op], [trunc], ...) that takes the scalar type
   already reduced to a few plain parameters: the shift [sh] that
   narrows a 64-bit pattern to the type's width, its signedness, f32
   rounding. Two drivers share those kernels:

   - the scalar [*_bits] functions below (and through them the boxed
     API), which decode the type per call;
   - the warp-wide [*_lanes] functions, which decode the opcode and
     type once per instruction and then run one loop over the lanes.

   The lane loops live here, beside their kernels, because the library
   is built with [-opaque] in the dev profile: nothing inlines across
   modules, so any per-lane call into another module would box its
   int64 and float arguments and results. *)

(* Narrow to the low [64 - sh] bits, sign-extended, then masked by [m]:
   [-1L] keeps the sign extension, the width mask zero-extends. A lane
   loop computes [m] once and narrows without a branch. *)
let[@inline] width_mask ~sh ~signed =
  if signed then -1L else Int64.shift_right_logical (-1L) sh

let[@inline] narrow ~sh ~m x =
  Int64.logand (Int64.shift_right (Int64.shift_left x sh) sh) m

let[@inline] norm ~sh ~signed x = narrow ~sh ~m:(width_mask ~sh ~signed) x

let[@inline] shift_of ty = 64 - (8 * Ptx.Types.width_bytes ty)

let[@inline] round_f32 f = Int32.float_of_bits (Int32.bits_of_float f)

let[@inline] to_int64_bits ~isf bits =
  if isf then Int64.of_float (Int64.float_of_bits bits) else bits

let to_bool_bits ~isf bits = to_int64_bits ~isf bits <> 0L

(* How a scalar type truncates a 64-bit pattern. *)
type trunc =
  | T_f32  (* round to single precision *)
  | T_id  (* 64-bit types: unchanged *)
  | T_pred  (* 0 or 1 by the value's truthiness *)
  | T_int of { sh : int; signed : bool }

(* constant blocks: the warp-wide kernels decode a type without
   allocating *)
let trunc_of ty =
  match ty with
  | Ptx.Types.F32 -> T_f32
  | Ptx.Types.Pred -> T_pred
  | Ptx.Types.F64 | Ptx.Types.S64 | Ptx.Types.U64 | Ptx.Types.B64 -> T_id
  | Ptx.Types.S16 -> T_int { sh = 48; signed = true }
  | Ptx.Types.S32 -> T_int { sh = 32; signed = true }
  | Ptx.Types.U16 | Ptx.Types.B16 -> T_int { sh = 48; signed = false }
  | Ptx.Types.U32 | Ptx.Types.B32 -> T_int { sh = 32; signed = false }
  | Ptx.Types.B8 -> T_int { sh = 56; signed = false }

let[@inline] trunc t ~isf bits =
  match t with
  | T_f32 -> Int64.bits_of_float (round_f32 (Int64.float_of_bits bits))
  | T_id -> bits
  | T_pred -> if to_int64_bits ~isf bits <> 0L then 1L else 0L
  | T_int { sh; signed } -> norm ~sh ~signed bits

let truncate_bits ty ~isf bits = trunc (trunc_of ty) ~isf bits

(* operands already narrowed to the type; the result is re-truncated by
   the caller *)
let[@inline] int_op op ~signed x y =
  match op with
  | Ptx.Instr.Add -> Int64.add x y
  | Ptx.Instr.Sub -> Int64.sub x y
  | Ptx.Instr.Mul_lo -> Int64.mul x y
  | Ptx.Instr.Div -> if y = 0L then 0L else Int64.div x y
  | Ptx.Instr.Rem -> if y = 0L then 0L else Int64.rem x y
  | Ptx.Instr.Min -> if x < y then x else y
  | Ptx.Instr.Max -> if x > y then x else y
  | Ptx.Instr.And -> Int64.logand x y
  | Ptx.Instr.Or -> Int64.logor x y
  | Ptx.Instr.Xor -> Int64.logxor x y
  | Ptx.Instr.Shl -> Int64.shift_left x (Int64.to_int (Int64.logand y 63L))
  | Ptx.Instr.Shr ->
    let s = Int64.to_int (Int64.logand y 63L) in
    if signed then Int64.shift_right x s else Int64.shift_right_logical x s

let[@inline] float_op op (x : float) (y : float) =
  match op with
  | Ptx.Instr.Add -> x +. y
  | Ptx.Instr.Sub -> x -. y
  | Ptx.Instr.Mul_lo -> x *. y
  | Ptx.Instr.Div -> x /. y
  | Ptx.Instr.Rem -> Float.rem x y
  | Ptx.Instr.Min -> Float.min x y
  | Ptx.Instr.Max -> Float.max x y
  | Ptx.Instr.And | Ptx.Instr.Or | Ptx.Instr.Xor | Ptx.Instr.Shl
  | Ptx.Instr.Shr ->
    nan

let check_float_binop op =
  match op with
  | Ptx.Instr.And | Ptx.Instr.Or | Ptx.Instr.Xor | Ptx.Instr.Shl
  | Ptx.Instr.Shr ->
    invalid_arg "Value: bitwise op on float type"
  | Ptx.Instr.Add | Ptx.Instr.Sub | Ptx.Instr.Mul_lo | Ptx.Instr.Div
  | Ptx.Instr.Rem | Ptx.Instr.Min | Ptx.Instr.Max ->
    ()

(* integer unops read the operand sign-extended, whatever the type *)
let[@inline] int_unop op x =
  match op with
  | Ptx.Instr.Neg -> Int64.neg x
  | Ptx.Instr.Not -> Int64.lognot x
  | Ptx.Instr.Abs -> Int64.abs x
  | Ptx.Instr.Sqrt | Ptx.Instr.Rcp | Ptx.Instr.Ex2 | Ptx.Instr.Lg2 -> 0L

let[@inline] float_unop op (x : float) =
  match op with
  | Ptx.Instr.Neg -> -.x
  | Ptx.Instr.Abs -> Float.abs x
  | Ptx.Instr.Sqrt -> sqrt x
  | Ptx.Instr.Rcp -> 1.0 /. x
  | Ptx.Instr.Ex2 -> Float.exp2 x
  | Ptx.Instr.Lg2 -> Float.log2 x
  | Ptx.Instr.Not -> nan

let check_unop op ~float =
  match op with
  | Ptx.Instr.Not when float -> invalid_arg "Value: not on float type"
  | (Ptx.Instr.Sqrt | Ptx.Instr.Rcp | Ptx.Instr.Ex2 | Ptx.Instr.Lg2)
    when not float ->
    invalid_arg "Value: SFU op on integer type"
  | Ptx.Instr.Neg | Ptx.Instr.Not | Ptx.Instr.Abs | Ptx.Instr.Sqrt
  | Ptx.Instr.Rcp | Ptx.Instr.Ex2 | Ptx.Instr.Lg2 ->
    ()

(* [compare] result against a comparison: lt/eq/gt acceptance bits *)
let cmp_bits cmp =
  match cmp with
  | Ptx.Instr.Eq -> 0b010
  | Ptx.Instr.Ne -> 0b101
  | Ptx.Instr.Lt -> 0b001
  | Ptx.Instr.Le -> 0b011
  | Ptx.Instr.Gt -> 0b100
  | Ptx.Instr.Ge -> 0b110

let[@inline] cmp_accepts accept r =
  accept land (if r < 0 then 1 else if r = 0 then 2 else 4) <> 0

(* how [compare_bits] reads its operands *)
type cmp_kind =
  | C_float
  | C_int of { sh : int; signed : bool }

let cmp_kind ty =
  match ty with
  | Ptx.Types.F32 | Ptx.Types.F64 -> C_float
  | Ptx.Types.S16 -> C_int { sh = 48; signed = true }
  | Ptx.Types.S32 -> C_int { sh = 32; signed = true }
  | Ptx.Types.S64 -> C_int { sh = 0; signed = true }
  | Ptx.Types.U16 | Ptx.Types.B16 -> C_int { sh = 48; signed = false }
  | Ptx.Types.U32 | Ptx.Types.B32 -> C_int { sh = 32; signed = false }
  | Ptx.Types.U64 | Ptx.Types.B64 -> C_int { sh = 0; signed = false }
  | Ptx.Types.B8 | Ptx.Types.Pred -> C_int { sh = 56; signed = false }

let[@inline] compare_kind k a b =
  match k with
  | C_float -> Float.compare (Int64.float_of_bits a) (Int64.float_of_bits b)
  | C_int { sh; signed = true } ->
    Int64.compare (norm ~sh ~signed:true a) (norm ~sh ~signed:true b)
  | C_int { sh; signed = false } ->
    Int64.unsigned_compare (norm ~sh ~signed:false a) (norm ~sh ~signed:false b)

let int_binop_bits op ty a b =
  let sh = shift_of ty and signed = Ptx.Types.is_signed ty in
  trunc (trunc_of ty) ~isf:false
    (int_op op ~signed (norm ~sh ~signed a) (norm ~sh ~signed b))

let float_binop_bits op ty a b =
  check_float_binop op;
  trunc (trunc_of ty) ~isf:true
    (Int64.bits_of_float
       (float_op op (Int64.float_of_bits a) (Int64.float_of_bits b)))

let binop_bits op ty a b =
  if Ptx.Types.is_float ty then float_binop_bits op ty a b
  else int_binop_bits op ty a b

let unop_bits op ty a =
  let float = Ptx.Types.is_float ty in
  check_unop op ~float;
  if float then
    trunc (trunc_of ty) ~isf:true
      (Int64.bits_of_float (float_unop op (Int64.float_of_bits a)))
  else
    trunc (trunc_of ty) ~isf:false
      (int_unop op (norm ~sh:(shift_of ty) ~signed:true a))

let mad_bits ty a b c =
  if Ptx.Types.is_float ty then
    trunc (trunc_of ty) ~isf:true
      (Int64.bits_of_float
         ((Int64.float_of_bits a *. Int64.float_of_bits b)
          +. Int64.float_of_bits c))
  else binop_bits Ptx.Instr.Add ty (binop_bits Ptx.Instr.Mul_lo ty a b) c

let compare_bits cmp ty a b =
  cmp_accepts (cmp_bits cmp) (compare_kind (cmp_kind ty) a b)

(* [cvt] as one kernel: [src_float]/[src] read the operand, [dst_float]
   and [dt] truncate the result *)
let[@inline] convert ~dst_float ~dt ~src_float ~sh ~signed bits =
  if src_float then
    if dst_float then trunc dt ~isf:true bits
    else
      (* float to int: round toward zero, as PTX cvt.rzi does by default *)
      trunc dt ~isf:false (Int64.of_float (Int64.float_of_bits bits))
  else
    let i = norm ~sh ~signed bits in
    if dst_float then
      trunc dt ~isf:true (Int64.bits_of_float (Int64.to_float i))
    else trunc dt ~isf:false i

let convert_bits ~dst ~src bits =
  convert ~dst_float:(Ptx.Types.is_float dst) ~dt:(trunc_of dst)
    ~src_float:(Ptx.Types.is_float src) ~sh:(shift_of src)
    ~signed:(Ptx.Types.is_signed src) bits

(* ---------------------------------------------------------------------
   Warp-wide kernels.

   Lane values live in [float array]s of raw 64-bit patterns
   ([Int64.float_of_bits]); a source or destination is an array plus
   the offset of lane 0, so a register-file slot is passed in place.
   Only the lanes set in [mask] (of [n]) are read or written. An
   operation that raises does so only when [mask] is non-empty. *)

let[@inline] get a i = Int64.bits_of_float (Array.unsafe_get a i)
let[@inline] set a i x = Array.unsafe_set a i (Int64.float_of_bits x)
let[@inline] active mask l = mask land (1 lsl l) <> 0

let truncate_lanes ty ~fmask ~mask ~n d doff s soff =
  match trunc_of ty with
  | T_f32 ->
    for l = 0 to n - 1 do
      if active mask l then
        Array.unsafe_set d (doff + l) (round_f32 (Array.unsafe_get s (soff + l)))
    done
  | T_id ->
    for l = 0 to n - 1 do
      if active mask l then
        Array.unsafe_set d (doff + l) (Array.unsafe_get s (soff + l))
    done
  | T_pred ->
    for l = 0 to n - 1 do
      if active mask l then
        set d (doff + l)
          (trunc T_pred ~isf:(active fmask l) (get s (soff + l)))
    done
  | T_int { sh; signed } ->
    let m = width_mask ~sh ~signed in
    for l = 0 to n - 1 do
      if active mask l then set d (doff + l) (narrow ~sh ~m (get s (soff + l)))
    done

let binop_lanes op ty ~mask ~n d doff a aoff b boff =
  if mask <> 0 then
    if Ptx.Types.is_float ty then begin
      check_float_binop op;
      let f32 = Ptx.Types.equal_scalar ty Ptx.Types.F32 in
      for l = 0 to n - 1 do
        if active mask l then begin
          let r =
            float_op op (Array.unsafe_get a (aoff + l))
              (Array.unsafe_get b (boff + l))
          in
          Array.unsafe_set d (doff + l) (if f32 then round_f32 r else r)
        end
      done
    end
    else begin
      let sh = shift_of ty and signed = Ptx.Types.is_signed ty in
      let m = width_mask ~sh ~signed in
      let pred = Ptx.Types.equal_scalar ty Ptx.Types.Pred in
      for l = 0 to n - 1 do
        if active mask l then begin
          let r =
            int_op op ~signed
              (narrow ~sh ~m (get a (aoff + l)))
              (narrow ~sh ~m (get b (boff + l)))
          in
          set d (doff + l)
            (if pred then if r <> 0L then 1L else 0L else narrow ~sh ~m r)
        end
      done
    end

let mad_lanes ty ~mask ~n d doff a aoff b boff c coff =
  if Ptx.Types.is_float ty then begin
    let f32 = Ptx.Types.equal_scalar ty Ptx.Types.F32 in
    for l = 0 to n - 1 do
      if active mask l then begin
        let r =
          (Array.unsafe_get a (aoff + l) *. Array.unsafe_get b (boff + l))
          +. Array.unsafe_get c (coff + l)
        in
        Array.unsafe_set d (doff + l) (if f32 then round_f32 r else r)
      end
    done
  end
  else begin
    let sh = shift_of ty and signed = Ptx.Types.is_signed ty in
    let m = width_mask ~sh ~signed in
    let t = trunc_of ty in
    for l = 0 to n - 1 do
      if active mask l then begin
        let p =
          trunc t ~isf:false
            (Int64.mul
               (narrow ~sh ~m (get a (aoff + l)))
               (narrow ~sh ~m (get b (boff + l))))
        in
        set d (doff + l)
          (trunc t ~isf:false
             (Int64.add (narrow ~sh ~m p) (narrow ~sh ~m (get c (coff + l)))))
      end
    done
  end

let unop_lanes op ty ~mask ~n d doff a aoff =
  if mask <> 0 then begin
    let float = Ptx.Types.is_float ty in
    check_unop op ~float;
    if float then begin
      let f32 = Ptx.Types.equal_scalar ty Ptx.Types.F32 in
      for l = 0 to n - 1 do
        if active mask l then begin
          let r = float_unop op (Array.unsafe_get a (aoff + l)) in
          Array.unsafe_set d (doff + l) (if f32 then round_f32 r else r)
        end
      done
    end
    else begin
      let sh = shift_of ty in
      let t = trunc_of ty in
      for l = 0 to n - 1 do
        if active mask l then
          set d (doff + l)
            (trunc t ~isf:false
               (int_unop op (norm ~sh ~signed:true (get a (aoff + l)))))
      done
    end
  end

let convert_lanes ~dst ~src ~mask ~n d doff a aoff =
  let dst_float = Ptx.Types.is_float dst and dt = trunc_of dst in
  let src_float = Ptx.Types.is_float src in
  let sh = shift_of src and signed = Ptx.Types.is_signed src in
  for l = 0 to n - 1 do
    if active mask l then
      set d (doff + l)
        (convert ~dst_float ~dt ~src_float ~sh ~signed (get a (aoff + l)))
  done

let compare_lanes cmp ty ~mask ~n a aoff b boff =
  let accept = cmp_bits cmp and k = cmp_kind ty in
  let r = ref 0 in
  for l = 0 to n - 1 do
    if active mask l
       && cmp_accepts accept (compare_kind k (get a (aoff + l)) (get b (boff + l)))
    then r := !r lor (1 lsl l)
  done;
  !r

let true_lanes ~fmask ~mask ~n a aoff =
  let r = ref 0 in
  for l = 0 to n - 1 do
    if active mask l
       && to_int64_bits ~isf:(active fmask l) (get a (aoff + l)) <> 0L
    then r := !r lor (1 lsl l)
  done;
  !r

let to_int64_lanes ~fmask ~mask ~n d doff a aoff =
  for l = 0 to n - 1 do
    if active mask l then
      set d (doff + l) (to_int64_bits ~isf:(active fmask l) (get a (aoff + l)))
  done

(* ---------------------------------------------------------------------
   Boxed wrappers: the original [Value.t] API, expressed through the
   bit-pattern kernels so the two can never drift apart. A result is
   [F]-tagged exactly when the operation's scalar type is a float type
   (moving a float value through an integer-typed slot, or vice versa,
   reinterprets the bits, as a real register file would). *)

let of_bits ty bits =
  if Ptx.Types.is_float ty then F (Int64.float_of_bits bits) else I bits

let truncate ty v = of_bits ty (truncate_bits ty ~isf:(is_f v) (to_bits v))
let binop op ty a b = of_bits ty (binop_bits op ty (to_bits a) (to_bits b))
let unop op ty a = of_bits ty (unop_bits op ty (to_bits a))
let mad ty a b c = of_bits ty (mad_bits ty (to_bits a) (to_bits b) (to_bits c))
let compare_values cmp ty a b = compare_bits cmp ty (to_bits a) (to_bits b)
let convert ~dst ~src v = of_bits dst (convert_bits ~dst ~src (to_bits v))

let equal a b =
  match (a, b) with
  | I x, I y -> Int64.equal x y
  | F x, F y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | I _, F _ | F _, I _ -> Int64.equal (to_bits a) (to_bits b)

let pp fmt = function
  | I i -> Format.fprintf fmt "%Ld" i
  | F f -> Format.fprintf fmt "%g" f
