(** Execution tracing: a per-warp instruction log from the functional
    interpreter, for debugging kernels and validating transformations by
    eye. Each record carries the pc, the instruction, the active mask
    and the defined register's lane-0 value. *)

type entry =
  { pc : int
  ; instr : Ptx.Instr.t
  ; mask : int
  ; def_value : Value.t option  (** lane 0 of the defined register *)
  }

val warp_trace : ?max_steps:int -> ctaid:int -> warp:int -> Launch.t -> entry list
(** Execute block [ctaid] functionally and record warp [warp]'s steps.
    Other warps of the block run too (shared-memory staging and barriers
    behave normally). [max_steps] (default 10_000) bounds the log.
    @raise Invalid_argument when the launch has no block [ctaid] or the
    block no warp [warp]. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> entry list -> unit
