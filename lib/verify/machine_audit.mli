(** Independent auditor for the machine-ISA backend (codes V601-V603
    and V605).

    Given a lowered program, it re-derives — without trusting
    {!Machine.Lower.run}'s own bookkeeping — the PTX-to-machine
    translation (V601), the per-file unit budgets and storage layout
    (V602), the live ranges of every machine register cross-checked
    against a fresh PTX liveness of the allocated kernel through the
    register map (V603), and the soundness discipline of the scalar
    file: no scalar destination may be computed from a per-lane value
    (V605). *)

val check : Machine.Lower.t -> Diagnostic.t list
(** Sorted diagnostics; empty means the lowered program passed every
    machine-level audit. *)
