(** The TPSC (Thread-level Parallelism and Spill Cost) metric of paper
    Section 6:

    {v TPSC = TLP_gain * Spill_cost v}

    where [TLP_gain = 1 - TLP*BlockSize / (TLP*BlockSize + MaxThread)]
    models the diminishing return of parallelism and [Spill_cost]
    estimates inserted spill overhead from the allocation's
    local/shared/other instruction counts and the micro-benchmarked
    per-access delays. The candidate with the smallest TPSC wins.

    The paper's product degenerates when no candidate spills (all
    TPSC = 0); we add one virtual spill instruction so the TLP term
    breaks such ties in favour of higher parallelism. *)

val tlp_gain : Gpusim.Config.t -> block_size:int -> tlp:int -> float
val spill_cost : Micro.costs -> Regalloc.Spill.stats -> float
val tpsc : Gpusim.Config.t -> Micro.costs -> block_size:int -> tlp:int -> Regalloc.Spill.stats -> float

val tpsc_weighted :
  Gpusim.Config.t -> Micro.costs -> block_size:int -> tlp:int -> Regalloc.Allocator.t -> float
(** Like {!tpsc} but with the spill access counts weighted by loop depth
    (an estimate of dynamic frequency) from the allocation result. The
    paper's static counts can prefer a high-TLP candidate whose extra
    spills sit inside hot loops; weighting fixes the misprediction we
    observed on DTC. {!Optimizer.plan} ranks candidates by it; the
    paper's static formula is kept as {!tpsc}. *)
