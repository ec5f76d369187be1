(** Instructions of the PTX subset.

    The subset covers everything the paper's listings use (mov, mul.lo,
    add, ld/st in every state space, bra, bar.sync) plus the arithmetic,
    comparison, select and convert operations required by the synthetic
    workloads. Instructions are fully typed; like real PTX, an instruction
    of type [t] only operates on registers of width-compatible types
    (Section 5.2 of the paper relies on this type-sensitivity). *)

type operand =
  | Oreg of Reg.t
  | Oimm of int64  (** integer immediate *)
  | Ofimm of float  (** floating-point immediate *)
  | Ospecial of Reg.special  (** built-in register read *)
  | Osym of string  (** address of a declared array (e.g. a spill stack) *)
  | Oparam of string  (** kernel parameter, used with [ld.param] *)

(** A memory address: base plus a constant byte offset. PTX has no
    displacement mode for [local]/[shared] symbols with register bases, so
    the allocator materialises bases into registers (paper, Listing 4). *)
type address =
  { base : operand
  ; offset : int
  }

type binop =
  | Add
  | Sub
  | Mul_lo  (** low half of the product, PTX [mul.lo] *)
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
      (** [d = a * b + c], PTX [mad.lo] / [fma] *)
  | Unop of unop * Types.scalar * Reg.t * operand
  | Cvt of Types.scalar * Types.scalar * Reg.t * operand
      (** [Cvt (dst_ty, src_ty, d, a)] *)
  | Setp of cmp * Types.scalar * Reg.t * operand * operand
      (** destination is a predicate register *)
  | Selp of Types.scalar * Reg.t * operand * operand * Reg.t
      (** [d = p ? a : b]; last field is the predicate *)
  | Ld of Types.space * Types.scalar * Reg.t * address
  | St of Types.space * Types.scalar * address * operand
  | Bra of string  (** unconditional branch to a label *)
  | Bra_pred of Reg.t * bool * string
      (** [Bra_pred (p, sense, l)]: branch to [l] when [p = sense] *)
  | Bar_sync  (** block-wide barrier, PTX [bar.sync 0] *)
  | Ret

val operand_regs : operand -> Reg.t list
val address_regs : address -> Reg.t list

val defs : t -> Reg.t list
(** Registers written by the instruction. *)

val uses : t -> Reg.t list
(** Registers read by the instruction (including address bases and branch
    predicates). *)

val is_control : t -> bool
(** Branches and [Ret]. *)

val is_barrier : t -> bool

val branch_target : t -> string option
(** Label targeted by a branch, if any. *)

val falls_through : t -> bool
(** Whether control may continue to the next statement. *)

val is_store : t -> bool

val map_regs : (Reg.t -> Reg.t) -> t -> t
(** Rewrite every register occurrence; used by the allocator to substitute
    physical for virtual registers. *)

val map_def : (Reg.t -> Reg.t) -> t -> t
(** Rewrite only the destination register (if any), leaving source
    occurrences untouched — needed when a register is both read and
    written by one instruction and the two positions must get different
    spill temporaries. *)

(** Latency/issue classification used by the timing model and by the
    static segment analysis of Section 4.1. *)
type op_class =
  | Alu  (** simple integer / single-precision op *)
  | Alu_heavy  (** div/rem/f64 and similar multi-cycle ops *)
  | Sfu  (** special-function unit: sqrt, rcp, ex2, lg2 *)
  | Mem_global
  | Mem_local
  | Mem_shared
  | Mem_const_param
  | Ctrl
  | Barrier

val classify : t -> op_class
val equal : t -> t -> bool
val binop_to_string : binop -> string
val unop_to_string : unop -> string
val cmp_to_string : cmp -> string

val emit : float:(float -> string) -> Buffer.t -> t -> unit
(** Append the instruction's PTX spelling, e.g. ["add.u32 %r2, %r0, 4;"],
    to the buffer. [float] spells float immediates. This is the one
    emitter of the instruction syntax: {!Printer} passes a spelling that
    round-trips ([%.17g]), {!to_string} the hexadecimal one ([%h]). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
