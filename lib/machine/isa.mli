(** The SASS-like machine ISA: a finite instruction set with three
    architectural register files. Programs exist only as [insn]
    records; there is no binary encoding.

    Unlike PTX — an infinite virtual register set with symbolic labels
    and named parameters — a machine instruction addresses physical
    storage directly: a {b vector} file of per-thread 32-bit units, a
    {b scalar} file of per-warp units (one copy per warp, holding
    values the compiler proved warp-uniform), and a {b predicate} file.
    Branches target absolute instruction indices; shared-memory symbols
    are resolved to immediate offsets at lowering time; the remaining
    symbolic residue (kernel parameters, per-thread local frames) is
    addressed through small constant-bank indices.

    64-bit values occupy an aligned pair of units, mirroring SASS
    register pairs; {!reg.idx} is always the first unit of the pair. *)

(** Architectural register file. *)
type file =
  | Vector  (** per-thread units; budgeted by the per-thread limit *)
  | Scalar  (** per-warp units; holds proven warp-uniform values *)
  | Pred  (** per-thread predicate bits *)

type reg =
  { file : file
  ; idx : int
      (** first 32-bit unit of the register ([Pred]: predicate index) *)
  ; ty : Ptx.Types.scalar
      (** operating type of this access; 64-bit types occupy units
          [idx] and [idx + 1] *)
  }

(** An instruction source. Symbolic PTX operands are gone: shared
    symbols became immediates, parameters and local symbols are indexed
    constant-bank reads. *)
type src =
  | Rsrc of reg
  | Imm of int64
  | Fimm of float
  | Spec of Ptx.Reg.special  (** special-register read port *)
  | Param of int  (** constant-bank slot: kernel parameter index *)
  | Loc of int
      (** per-thread local-frame symbol: byte offset into the frame *)

type addr =
  { abase : src
  ; aoffset : int  (** constant byte displacement *)
  }

(** Machine instructions. The operation set mirrors the PTX subset
    one-for-one (lowering is 1:1), but every register is physical and
    every branch target is an absolute instruction index. *)
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

val units : reg -> int
(** Register-file units occupied: 2 for 64-bit types, 1 otherwise
    (predicates count 1 in their own file). *)

val equal_reg : reg -> reg -> bool

val defs : insn -> reg list
val uses : insn -> reg list
(** Registers read, including address bases and branch predicates. *)

val succs : insn -> pc:int -> code_len:int -> int list
(** Successor instruction indices of the instruction at [pc]. *)

val file_to_string : file -> string
val reg_name : reg -> string
(** SASS-like spelling: [R4] (vector), [SR2] (scalar), [P0]
    (predicate); 64-bit accesses show the pair, e.g. [R4:R5]. *)

val pp_reg : Format.formatter -> reg -> unit
val pp_src : Format.formatter -> src -> unit
val pp_insn : Format.formatter -> insn -> unit
val insn_to_string : insn -> string
