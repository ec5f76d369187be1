(** Linear-scan register allocation (Poletto & Sarkar) over conservative
    live intervals. Used as the independent reference allocator for the
    spill-volume validation experiment (paper Figure 12): two different
    algorithms should agree on spill bytes except near tight limits. *)

val color :
  ?member:(Ptx.Reg.t -> bool)
  -> ranges:(Ptx.Reg.t * (int * int)) list
  -> cls:Ptx.Types.reg_class
  -> k:int
  -> spill_cost:(Ptx.Reg.t -> float)
  -> unit
  -> Coloring.result
(** [ranges] is {!Cfg.Liveness.live_ranges} of the kernel. Same
    contract as {!Coloring.color}, including the [member]
    partition filter: registers mapped to colours [0..k-1], overflow
    spilled (never an unspillable register, i.e. one whose cost is
    [infinity]). *)
