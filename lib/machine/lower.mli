(** Lowering: from an allocated (physical-register) PTX kernel to the
    machine ISA.

    The input is predecoded through {!Gpusim.Image.prepare} — body
    flattened, labels resolved, reconvergence points computed, and
    shared/local symbols laid out — then translated 1:1: machine
    instruction [i] implements flattened PTX instruction [i], branch
    labels become absolute indices, shared symbols become immediate
    offsets, parameters and local symbols become constant-bank indices.

    Register mapping packs each file densely in 32-bit units: the
    64-bit colours of a file occupy the aligned pairs
    [0..2*n64), and the 32-bit colours follow at [2*n64 + c]. The
    vector/scalar split of the allocation (physical ids below/above
    {!Regalloc.Allocator.scalar_color_base}) maps to the [Vector] and
    [Scalar] files; predicates map index-for-index to the [Pred] file.

    Because the mapping is a bijection on storage locations and the
    translation is 1:1, the machine program and the allocated PTX
    kernel are isomorphic — {!Exec} matches the reference interpreter
    in [test/support] bit-for-bit (the differential test), which is what
    lets the timing simulator keep running the PTX form while the study
    sweeps machine-backend allocations. The program is kept as
    {!Isa.insn} records only: {!Exec}, the auditor and the equivalence
    checker all read [code], and no binary form is produced. *)

type t =
  { name : string
  ; code : Isa.insn array
  ; params : string array  (** constant-bank slot -> parameter name *)
  ; image : Gpusim.Image.t
      (** the predecoded allocated-PTX image this was lowered from;
          carries the local-frame layout and address-interleaving rules
          {!Exec} must reproduce *)
  ; alloc : Regalloc.Allocator.t
  ; vector_units : int  (** vector units spanned per thread *)
  ; scalar_units : int  (** scalar units spanned per warp *)
  ; pred_count : int
  }

val run : Regalloc.Allocator.t -> t
(** @raise Invalid_argument when the allocation references a parameter
    or symbol the kernel does not declare (allocated kernels from
    {!Regalloc.Allocator.allocate} never do). *)

val map_reg : Regalloc.Allocator.t -> n64v:int -> n64s:int -> Ptx.Reg.t -> Isa.reg
(** The physical-PTX-register to machine-register mapping used by
    [run], exposed so the independent auditor can re-derive it;
    [n64v]/[n64s] are the 64-bit colour counts of the two files (see
    {!count64}). *)

val count64 : Regalloc.Allocator.t -> int * int
(** [(n64v, n64s)]: 64-bit colour count of the vector and scalar files,
    derived from the allocated kernel's register set. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing. *)
