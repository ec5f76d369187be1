(** Def/use statistics per virtual register, weighted by loop depth.
    Drives spill-candidate selection (paper Section 2.2: variables with
    long live ranges and low access frequency are cheap spills). *)

type stats =
  { n_defs : int
  ; n_uses : int
  ; weighted : float
      (** sum over occurrences of [10^min(depth, 4)] — estimated dynamic
          access frequency *)
  }

val compute : Flow.t -> stats Ptx.Reg.Map.t
(** Each instruction [i] counts [10^min(depth i, 4)] towards [weighted]
    of every register it defines or uses, [depth i] being its loop
    nesting depth. *)
