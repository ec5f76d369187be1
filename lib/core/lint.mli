(** The [crat lint] driver: static performance advisor over the workload
    suite, plus the differential honesty check against the simulator.

    [lint] runs {!Verify.Advisor} on an application's kernel with only
    launch facts that are known statically (block size, register
    budget) — the report one would get from the PTX alone.

    [validate] re-runs the analysis with the full launch description of
    one input (grid size, parameter values), counts that launch's
    recorded trace per pc ({!Gpusim.Profile}), and holds the static
    claims to the observed behaviour:

    - every dynamic global/local/shared access and every executed
      conditional branch must have a static record at its pc;
    - a warp access never touches more L1-line segments than the static
      segment bound claims (so a "must-coalesced" access shows zero
      extra transactions);
    - a shared access never exceeds the claimed bank-conflict degree;
    - a branch the advisor proved uniform never splits the warp.

    Any violation is returned as a human-readable failure line; an empty
    list means the advisor was honest on that launch. *)

val lint :
  ?cfg:Gpusim.Config.t -> ?regs:int -> Workloads.App.t -> Verify.Advisor.report
(** Static-only advisor report. [regs] (default: the app's
    [default_regs]) arms the P101 budget check; [cfg] (default
    {!Gpusim.Config.fermi}) supplies warp size, L1-line bytes and
    shared-bank count. *)

val validate :
  ?cfg:Gpusim.Config.t ->
  ?input:Workloads.App.input ->
  Workloads.App.t ->
  Verify.Advisor.report * string list
(** Differential validation on one input (default: the app's default
    input). Returns the launch-specialised report and the list of
    violated claims (empty = honest). *)
