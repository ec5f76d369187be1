(** Classic backward liveness analysis over virtual registers.

    This is the analysis CRAT uses both to find [MaxReg] (the pressure
    needed to hold all variables, Section 4.1) and to build live ranges
    for the interference graph (Section 5.1). *)

type t =
  { live_in : Ptx.Reg.Set.t array  (** per instruction index *)
  ; live_out : Ptx.Reg.Set.t array
  }

val compute : Flow.t -> t

val block_use_def : Flow.t -> Flow.block -> Ptx.Reg.Set.t * Ptx.Reg.Set.t
(** Block-level [(use, def)]: registers read before any write in the
    block, and registers written — the transfer-function ingredients,
    exported so forward dataflow passes (lib/verify) can reuse them. *)

val pressure_at : Ptx.Reg.Set.t -> int
(** Register-file units (32-bit registers) occupied by a live set;
    predicates cost nothing. *)

val max_pressure : t -> int
(** MaxLive: the maximum of {!pressure_at} over all program points
    (live-in and live-out of every instruction). *)

val max_live : t -> Ptx.Types.reg_class -> int
(** The maximum number of simultaneously live registers of one class
    over all program points. *)

val live_ranges : Flow.t -> t -> (Ptx.Reg.t * (int * int)) list
(** For each register, the (first, last) instruction index at which it is
    live or defined — a conservative interval view used for reporting. *)
