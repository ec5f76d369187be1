(** Abstract interpretation over a {!Cfg.Flow} CFG, and the one
    divergence analysis: the static verifier, the sanitizer, the advisor
    and the machine scalarizer all read it.

    A forward worklist fixpoint over the {!Dom} product domain
    (interval x affine-in-tid/ctaid x uniformity), with widening at the
    natural-loop headers followed by a bounded narrowing pass. Two
    feedback loops close over the sweeps:

    - block divergence, through post-dominator control dependence: a
      block control dependent on a divergently taken branch, or on a
      divergent block, may run with a partial warp, and a definition in
      such a block is never uniform;
    - per-thread private memory: local space and the Algorithm-1 shared
      spill sub-stack ([SpillShm + stride*tid + slot]) return what the
      same thread stored, so a reload is only as divergent as the
      stores that may write its slot. A store is divergent once its
      value is not uniform or its block is divergent; a shared store
      outside the sub-stack pattern that may alias it makes every
      sub-stack reload divergent. Reloads start uniform, so a spilled
      uniform loop counter stays uniform.

    Uniformity is flow-sensitive: the per-instruction state lets a
    uniform redefinition replace a divergent one, which matters on
    allocated kernels, where physical registers are recycled between
    unrelated values. Per-instruction entry states are retained for
    queries. *)

type state = Dom.v Ptx.Reg.Map.t
(** Abstract register file; a register absent from the map is top. *)

type t

val run :
  ?block_size:int ->
  ?num_blocks:int ->
  ?warp_size:int ->
  ?params:(string * int64) list ->
  Cfg.Flow.t ->
  t
(** [block_size] defaults to 128 and bounds [%tid.x]; [num_blocks]
    bounds [%ctaid.x] when known; [params] gives concrete values of
    kernel parameters when analysing a specific launch. *)

val flow : t -> Cfg.Flow.t
val block_size : t -> int

val num_blocks : t -> int option
(** The grid size the analysis was specialised to, when known. *)

val spill_stride : t -> int option
(** Per-thread bytes of the allocator's shared spill sub-stack
    ({!Regalloc.Spill.shared_stack_sym}), when the kernel carries one
    sized for the analysed block size. *)

val out_state : t -> int -> state
(** Abstract state on exit of block [b]. *)

val value_at : t -> int -> Ptx.Reg.t -> Dom.v
(** Abstract value of register [r] as observed by instruction [i]. *)

val operand_at : t -> int -> Ptx.Instr.operand -> Dom.v
val address_at : t -> int -> Ptx.Instr.address -> Dom.v

val divergent_block : t -> int -> bool
(** May block [b] execute with a partially-active warp? A register use
    at [i] may differ between the threads of a block exactly when
    [(value_at t i r).uni] is false. *)

val eval_operand : t -> state -> Ptx.Instr.operand -> Dom.v
(** Evaluate an operand under an explicit state (used by derived
    analyses that simulate along a path). *)
