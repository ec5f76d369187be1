(** PTX kernels: parameters, array declarations and a statement body. *)

(** A declared array in local or shared memory (e.g. a spill stack,
    paper Listing 4). [count] is the element count; the byte size is
    [count * width_bytes elem]. *)
type decl =
  { dname : string
  ; dspace : Types.space
  ; delem : Types.scalar
  ; dcount : int
  ; dalign : int
  }

(** A body statement: a label or an instruction. *)
type stmt =
  | L of string
  | I of Instr.t

type t =
  { name : string
  ; params : (string * Types.scalar) list
  ; decls : decl list
  ; body : stmt array
  }

val decl_bytes : decl -> int

val shared_bytes : t -> int
(** Total bytes of [.shared] declarations (per thread block). *)

val local_bytes : t -> int
(** Total bytes of [.local] declarations (per thread). *)

val instrs : t -> Instr.t list
(** Instructions in body order, labels dropped. *)

val instr_count : t -> int

val registers : t -> Reg.Set.t
(** Every virtual register defined or used by the body. *)

val register_demand : t -> int
(** Register-file units (32-bit registers) needed to hold all virtual
    registers simultaneously, i.e. the unallocated kernel's demand. *)

val labels : t -> string list

val map_instrs : (Instr.t -> Instr.t) -> t -> t

val fresh_reg_base : t -> int
(** An id strictly greater than every register id in the kernel; fresh
    registers allocated from here cannot collide. *)

val validate : t -> (unit, string) result
(** Check well-formedness: branch targets exist, labels unique, operand
    types match instruction types, declared symbols referenced by [Osym]
    exist, and no instruction writes a special register. *)
