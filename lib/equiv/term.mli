(** Shared bitvector term language for the translation validator.

    A term denotes the 64-bit {e bit pattern} a register or memory slot
    holds in the interpreters' value model, together with a
    statically-known float tag (the [F]/[I] boxing of {!Gpusim.Value}).
    Terms range over kernel parameters, the launch specials ([%tid.x],
    [%ctaid.x], ...), uninterpreted per-thread local-frame bases, havoc
    variables introduced at loop cutpoints, and versioned initial-memory
    loads.

    Tags are static by construction: registers carry the float tag of
    their declared class, parameters that of their declared type, and a
    [Load] term denotes the pattern {e after} truncation to the load
    type — so the only tag-sensitive operation of the interpreter
    (predicate truncation of an [F]-tagged value) never meets an
    unknown tag. *)

type lspace =
  | LGlobal  (** global heap (also [Const], which reads the same memory) *)
  | LShared  (** block-shared segment, addresses segment-relative *)
  | LLocal   (** per-thread local frame, addresses relative to the naive
                 symbol base ([SymLocal]) *)

type t =
  | Cst of int64 * bool  (** bit pattern + float tag *)
  | Var of int * Ptx.Types.scalar
      (** cutpoint havoc variable; the scalar is the register type whose
          store invariant the variable inherits *)
  | Special of Ptx.Reg.special
  | ParamV of string * bool
      (** raw parameter pattern; tag from the declared parameter type *)
  | SymLocal of string
      (** naive (pre-remap) base address of a local symbol for the
          current thread — uninterpreted, identical across both sides *)
  | Bin of Ptx.Instr.binop * Ptx.Types.scalar * t * t
  | Un of Ptx.Instr.unop * Ptx.Types.scalar * t
  | MadT of Ptx.Types.scalar * t * t * t
  | CmpT of Ptx.Instr.cmp * Ptx.Types.scalar * t * t  (** 1 or 0 *)
  | SelT of Ptx.Types.scalar * t * t * t  (** selp: cond, then, else *)
  | CvtT of Ptx.Types.scalar * Ptx.Types.scalar * t  (** dst, src *)
  | Trunc of Ptx.Types.scalar * t
  | Load of load

and load =
  { lsp : lspace
  ; lty : Ptx.Types.scalar
  ; ver : int  (** memory version: bumped at each store / barrier *)
  ; addr : t
  ; laff : Absint.Dom.aff  (** affine view of the address, for matching *)
  ; lsing : int option  (** concrete address when the interval is a point *)
  }

val tag : t -> bool
(** Statically-known float tag of the denoted value. *)

val cst : int64 -> t
val cst_int : int -> t
val fcst : float -> t

(* Smart constructors: fold constants through the interpreter's own
   arithmetic kernels ({!Gpusim.Value.binop_bits} and friends) so a
   folded term is bit-identical to the dynamic result. *)

val mk_bin : Ptx.Instr.binop -> Ptx.Types.scalar -> t -> t -> t
val mk_un : Ptx.Instr.unop -> Ptx.Types.scalar -> t -> t
val mk_mad : Ptx.Types.scalar -> t -> t -> t -> t
val mk_cmp : Ptx.Instr.cmp -> Ptx.Types.scalar -> t -> t -> t
val mk_sel : Ptx.Types.scalar -> t -> t -> t -> t
val mk_cvt : dst:Ptx.Types.scalar -> src:Ptx.Types.scalar -> t -> t
val mk_trunc : Ptx.Types.scalar -> t -> t
(** Collapses truncations that provably cannot change the pattern
    (same-type, 64-bit targets, value-range subsumption). *)

val to_i64 : t -> t option
(** Term denoting [Value.to_int64] of the value: the pattern itself for
    integer-tagged terms, a folded conversion for float constants,
    [None] (symbolic float) otherwise. *)

val decided : t -> bool option
(** [Some b] when the term is a constant whose boolean reading is [b]. *)

val equal : t -> t -> bool
(** Structural equality (constants compare pattern and tag; loads
    compare space, type, version and address, the latter structurally or
    through exact affine / singleton views). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
