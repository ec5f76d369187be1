type scalar =
  | U16
  | U32
  | U64
  | S16
  | S32
  | S64
  | F32
  | F64
  | B8
  | B16
  | B32
  | B64
  | Pred

type space =
  | Reg
  | Local
  | Shared
  | Global
  | Param
  | Const

let width_bytes = function
  | B8 -> 1
  | U16 | S16 | B16 -> 2
  | U32 | S32 | F32 | B32 -> 4
  | U64 | S64 | F64 | B64 -> 8
  | Pred -> 1

type reg_class =
  | Cpred
  | C32
  | C64

let reg_class = function
  | Pred -> Cpred
  | U64 | S64 | F64 | B64 -> C64
  | U16 | U32 | S16 | S32 | F32 | B8 | B16 | B32 -> C32

let class_units = function
  | Cpred -> 0
  | C32 -> 1
  | C64 -> 2

let is_float = function
  | F32 | F64 -> true
  | U16 | U32 | U64 | S16 | S32 | S64 | B8 | B16 | B32 | B64 | Pred -> false

let is_signed = function
  | S16 | S32 | S64 -> true
  | U16 | U32 | U64 | F32 | F64 | B8 | B16 | B32 | B64 | Pred -> false

let scalar_to_string = function
  | U16 -> "u16"
  | U32 -> "u32"
  | U64 -> "u64"
  | S16 -> "s16"
  | S32 -> "s32"
  | S64 -> "s64"
  | F32 -> "f32"
  | F64 -> "f64"
  | B8 -> "b8"
  | B16 -> "b16"
  | B32 -> "b32"
  | B64 -> "b64"
  | Pred -> "pred"

let all_scalars =
  [ U16; U32; U64; S16; S32; S64; F32; F64; B8; B16; B32; B64; Pred ]

let scalar_of_string s =
  List.find_opt (fun t -> scalar_to_string t = s) all_scalars

let space_to_string = function
  | Reg -> "reg"
  | Local -> "local"
  | Shared -> "shared"
  | Global -> "global"
  | Param -> "param"
  | Const -> "const"

let all_spaces = [ Reg; Local; Shared; Global; Param; Const ]
let space_of_string s = List.find_opt (fun x -> space_to_string x = s) all_spaces

let equal_scalar (a : scalar) (b : scalar) = a = b
let equal_space (a : space) (b : space) = a = b
