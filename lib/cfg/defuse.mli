(** Def/use statistics per virtual register, optionally weighted by loop
    depth. Drives spill-candidate selection (paper Section 2.2: variables
    with long live ranges and low access frequency are cheap spills). *)

type stats =
  { n_defs : int
  ; n_uses : int
  ; weighted : float
      (** sum over occurrences of [10^min(depth, 4)] — estimated dynamic
          access frequency *)
  }

val compute : ?weight:(int -> float) -> Flow.t -> stats Ptx.Reg.Map.t
(** [weight i] is the estimated dynamic execution count of instruction
    index [i]. Defaults to the historical [10^min(depth, 4)] loop-depth
    heuristic; pass a provider backed by proven trip counts (e.g.
    [Absint.Trip.weight_provider]) to sharpen spill-gain estimates. *)
