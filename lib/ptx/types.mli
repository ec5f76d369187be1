(** Scalar types and state spaces of the PTX subset.

    The subset mirrors the types that appear in the paper's listings
    ([.u32], [.u64], [.b8], predicates, ...) plus the floating-point types
    needed by the workloads. *)

(** A PTX scalar type. [Pred] is the predicate type produced by [setp]. *)
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

(** A PTX state space. [Reg] is the register space; [Local] is per-thread
    off-chip memory (spill target); [Shared] is per-block on-chip memory;
    [Global] is device memory; [Param] holds kernel parameters. *)
type space =
  | Reg
  | Local
  | Shared
  | Global
  | Param
  | Const

val width_bytes : scalar -> int
(** Storage width in bytes. [Pred] is 1 for storage purposes. *)

(** Register width class used by the allocator: predicates are tracked
    separately; every other type is a 32-bit or 64-bit register. *)
type reg_class =
  | Cpred
  | C32
  | C64

val reg_class : scalar -> reg_class

val class_units : reg_class -> int
(** Cost of one register of the class in 32-bit register-file units:
    [Cpred] is 0, [C32] is 1, [C64] is 2. *)

val is_float : scalar -> bool
val is_signed : scalar -> bool

val scalar_to_string : scalar -> string
(** PTX spelling without the leading dot, e.g. ["u32"]. *)

val scalar_of_string : string -> scalar option
val space_to_string : space -> string
val space_of_string : string -> space option
val equal_scalar : scalar -> scalar -> bool
val equal_space : space -> space -> bool
val all_scalars : scalar list
