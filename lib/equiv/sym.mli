(** Per-side symbolic execution of a PTX kernel.

    Executes one kernel from a segment start (entry or a loop-header
    cutpoint) to the next {e event} — an observable store, a barrier, a
    conditional branch, arrival at a cutpoint, or return — updating a
    symbolic register file and (on allocated kernels) a spill-slot
    environment. The co-execution driver ({!Check}) advances two sides
    in lockstep and matches their event streams. *)

module RMap : Map.S with type key = int

type slot_key =
  | Lslot of int  (** byte offset inside the local spill stack *)
  | Sslot of int  (** byte offset inside the per-thread shared sub-stack *)

module SMap : Map.S with type key = slot_key

type side =
  { kernel : Ptx.Kernel.t
  ; flow : Cfg.Flow.t
  ; an : Absint.Analysis.t
  ; live : Cfg.Liveness.t
  ; shared_off : (string * int) list
  ; local_off : (string * int) list
  ; param_tag : (string * bool) list
  ; headers : (int * string) list  (** loop-header instr index -> label *)
  ; spill : spill_ctx option  (** present when the kernel carries spill decls *)
  }

and spill_ctx =
  { local_bytes : int  (** extent of the [SpillStack] decl, 0 if absent *)
  ; shared_stride : int  (** per-thread bytes of [SpillShm], 0 if absent *)
  }

exception Unsupported of string

val make_side : ?block_size:int -> ?num_blocks:int -> Ptx.Kernel.t -> side
(** @raise Unsupported when a loop header carries no label (cutpoints
    could not be aligned across sides). *)

val reg_key : Ptx.Reg.t -> int
(** Storage key of a register — width class and id, exactly the aliasing
    the interpreter's register files implement. *)

val eval_special : side -> Ptx.Reg.special -> Term.t
(** The term of a special register: the launch geometry the side's
    analysis fixes ([%tid.y], [%ntid.x], ...) as a constant, the rest
    as {!Term.Special}. *)

type state =
  { regs : Term.t RMap.t
  ; slots : Term.t SMap.t
  ; lhazy : bool  (** an unprovable local store may have clobbered slots *)
  ; shazy : bool  (** likewise for the shared sub-stack *)
  ; pc : int
  }

val entry_state : state

type store_ev =
  { sspace : Ptx.Types.space
  ; sty : Ptx.Types.scalar
  ; saddr : Term.t
  ; saff : Absint.Dom.aff
  ; ssing : int option
  ; svalue : Term.t
  ; vaff : Absint.Dom.aff
  ; vsing : int option
  ; may_alias_spill : bool
  }

type branch_ev =
  { cond : Term.t
  ; cond_sing : int option
  ; sense : bool
  ; label : string
  ; target_pc : int
  ; fall_pc : int
  ; decided : bool option
  }

type event =
  | Ev_store of store_ev
  | Ev_barrier
  | Ev_branch of branch_ev
  | Ev_cut of string  (** arrived at the loop header with this label *)
  | Ev_ret
  | Ev_stuck of string

val advance :
  side ->
  version:int ->
  fuel:int ref ->
  fresh:(Ptx.Types.scalar -> Term.t) ->
  first:bool ->
  state ->
  state * event
(** Run from [state.pc] to the next event. [first] suppresses the
    cutpoint check at the segment's own starting pc. After [Ev_store] /
    [Ev_barrier] the returned state's [pc] is already past the
    instruction; after [Ev_branch] the driver picks [target_pc] or
    [fall_pc]; after [Ev_cut] the pc is the header itself. *)

val slot_key_of : Regalloc.Spill.placement -> slot_key

val havoc_slots :
  (slot_key -> Term.t) -> Regalloc.Spill.placement list -> Term.t SMap.t
(** Fresh-variable slot environment over the recorded placements. *)
