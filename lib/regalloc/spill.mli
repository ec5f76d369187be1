(** Spill-code insertion (paper Section 5.1, Listing 4).

    Spilled registers live in a per-thread spill stack. The stack is
    split between [Local] memory (the default) and [Shared] memory (when
    the optimization of Algorithm 1 selects a sub-stack). A 64-bit
    addressing register per region holds the base address, since symbol
    bases must be materialised; the shared base additionally embeds a
    per-thread offset of [tid.x * bytes_per_thread]. *)

type placement =
  { reg : Ptx.Reg.t
  ; space : Ptx.Types.space  (** [Local] or [Shared] *)
  ; offset : int  (** byte offset inside the per-thread region *)
  }

type spec =
  { placements : placement list
  ; local_bytes : int  (** per-thread local spill-stack bytes *)
  ; shared_bytes_per_thread : int
  ; remat : (Ptx.Reg.t * Ptx.Instr.operand) list
      (** rematerialised registers: no stack slot; each use re-executes
          [mov tmp, operand] instead of a reload (Briggs-style
          rematerialisation — constants and built-in register reads are
          cheaper to recompute than to reload) *)
  }

val layout :
  ?remat:(Ptx.Reg.t -> Ptx.Instr.operand option)
  -> to_shared:(Ptx.Reg.t -> bool)
  -> Ptx.Reg.t list
  -> spec
(** Assign each spilled register a region and an aligned offset.
    Registers are grouped by width (widest first) so offsets respect
    natural alignment. Registers for which [remat] returns a source
    operand get no slot and are listed in [spec.remat] instead. *)

(** Static counts of inserted instructions, the inputs to the
    [Spill_cost] term of TPSC (Section 6). *)
type stats =
  { num_local : int  (** inserted [ld/st.local] *)
  ; num_shared : int  (** inserted [ld/st.shared] *)
  ; num_other : int  (** address-computation instructions *)
  ; num_remat : int  (** rematerialisation moves inserted *)
  }

val local_stack_sym : string
(** Name of the per-thread local spill-stack symbol ([SpillStack]). *)

val shared_stack_sym : string
(** Name of the block-wide shared spill-stack symbol ([SpillShm]);
    {!Absint.Analysis} recognises the per-thread sub-stack addressing
    pattern through it. *)

val shared_stride_of_kernel : block_size:int -> Ptx.Kernel.t -> int option
(** The per-thread byte stride of the allocator-emitted shared spill
    stack, when the kernel carries one sized for [block_size] threads.
    {!Absint.Analysis.spill_stride} is the one reader; the verifier, the
    sanitizer and translation validation take the stride from there. *)

val apply : block_size:int -> Ptx.Kernel.t -> spec -> Ptx.Kernel.t * stats
(** Rewrite the kernel: every use of a spilled register loads it into a
    fresh temporary first; every def stores it back afterwards.
    [block_size] sizes the shared spill array ([bytes_per_thread *
    block_size]). The result validates. *)

val infra_registers : Ptx.Kernel.t -> Ptx.Kernel.t -> Ptx.Reg.Set.t
(** Registers present in the rewritten kernel but not the original —
    spill temporaries and base registers; these must never be re-spilled
    (their {!Coloring} cost is infinite). *)
