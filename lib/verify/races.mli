(** Checker 4: shared-memory races. Pairs of shared-space accesses (at
    least one a store) that can touch overlapping bytes from different
    threads with no [bar.sync] separating them.

    Addresses are classified with the {!Absint.Dom} affine forms of the
    kernel's {!Absint.Analysis}, and value and block divergence are
    read from the same analysis; per-thread-private forms — in
    particular the Algorithm-1 spill sub-stack pattern
    [SpillShm + stride * tid + slot], with the stride from
    {!Absint.Analysis.spill_stride} — are proven disjoint across threads
    and accepted silently. Severities are calibrated so that only
    definite bugs are errors:

    - V401 (error): the whole block stores divergent values to one
      provably uniform shared address — guaranteed nondeterminism;
    - V402 (error): a resolved access into the spill region that breaks
      the per-thread private addressing discipline;
    - V403 (warning): possible cross-thread conflicts that the analysis
      cannot prove disjoint (one warning per offending access). *)

val check : Absint.Analysis.t -> Diagnostic.t list
(** Races of the analysed kernel among a block of the analysis' block
    size. *)
