(** Kernel text in the PTX subset accepted by {!Parser}, written into a
    [Buffer]. Instructions are spelled by {!Instr.emit}, the one emitter
    of PTX syntax in this library, with float immediates in [%.17g] so
    that the text round-trips exactly. *)

val kernel_to_string : Kernel.t -> string
