(** Per-access memory classification and branch uniformity.

    The segment bound mirrors {!Gpusim.Coalescer.segments} (distinct
    L1-line indices over the warp's lane base addresses); the
    bank-conflict degree mirrors {!Gpusim.Coalescer.bank_degree} (max
    distinct 4-byte words mapping to one bank). Every bound is a worst-case over
    base alignment, so a dynamic counter can never exceed it. *)

type mem_class =
  | Coalesced of int
      (** proven: at most [n] L1-line segments per warp access *)
  | Strided of int * int  (** exact per-lane byte stride, segment bound *)
  | Scattered  (** no proof; up to one segment per active lane *)

type mem =
  { pc : int
  ; space : Ptx.Types.space
  ; width : int
  ; store : bool
  ; addr : Dom.v  (** abstract address *)
  ; cls : mem_class
  ; seg_bound : int option
        (** proven max segments (global/local); [None] = no claim *)
  ; bank_bound : int option
        (** proven max bank-conflict degree (shared); [None] = no claim *)
  ; divergent : bool  (** access sits in a possibly-divergent block *)
  ; depth : int  (** loop-nesting depth *)
  }

type branch =
  { bpc : int
  ; uniform : bool  (** proven: the warp never splits at this branch *)
  ; bdepth : int
  }

type t =
  { mems : mem list
  ; branches : branch list
  }

val collect : ?warp_size:int -> ?line:int -> ?banks:int -> Analysis.t -> t
(** Defaults match {!Gpusim.Config.fermi}: warp 32, 128-byte L1 lines,
    32 shared-memory banks. *)
