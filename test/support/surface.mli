(** The simulator's fingerprint surfaces, shared by [test_replay]
    (which pins their digests) and [bench/statdump.exe] (which prints
    them for diffing between two builds). Every surface runs each
    workload's default build and its r20 build, allocated at
    [reg_limit:20] with [`Spare 512] shared spilling. *)

val record : Gpusim.Launch.t -> Gpusim.Replay.t
(** The launch's finished trace. *)

val statdump :
  ?blocks:int
  -> ?tlps:int list
  -> unit
  -> (string * Gpusim.Launch.t * Gpusim.Stats.t) list
(** The [model_epoch] surface: every workload at [blocks] (default 2)
    blocks, both builds at each TLP in [tlps] (default [[1; 3]]), cold
    Fermi runs under GTO and static TLP, e.g. ["KMN/r20/tlp3"]. Each
    entry carries its launch. *)

val limit_cycles : int

val variants : unit -> (string * Gpusim.Stats.t) list
(** The variant surface: the options {!statdump} leaves unpinned. For
    every workload at 6 blocks, the default build runs under dynamic
    TLP (TLP 2 and 5), [`Lrr] (TLP 1 and 3), [bypass_global] (TLP 3),
    Kepler (TLP 2), a {!limit_cycles} budget (TLP 3; the
    {!Gpusim.Sm.Cycle_limit} payload when the run exceeds it) and
    [Gpu.run ~sms:2] (TLP 2, one entry per SM); the r20 build runs the
    dynamic-TLP and bypass variants. Sm runs replay one recorded trace
    per build. Entries are named e.g. ["KMN/default/dyn/tlp5/sm0"]. *)

val allocation :
  strategy:Regalloc.Allocator.strategy
  -> shared_policy:Regalloc.Allocator.shared_policy
  -> scalar:(Ptx.Reg.t -> bool)
  -> scalar_limit:int
  -> reg_limit:int
  -> Workloads.App.t
  -> string
(** One entry of {!allocations}. *)

val allocations : unit -> (string * string) list
(** The allocation surface, pinned as [Crat.Engine.alloc_epoch]: every
    workload allocated under each knob the engine's allocation key
    carries: Chaitin-Briggs and linear scan, the PTX register file and
    the machine backend's scalar partition, shared spare 0 (spilling
    to local memory only), 512 and 8192 bytes, and limits 12 (where
    most PTX allocations are rejected) and 20. Each entry is the hex
    digest of the allocated kernel text and its
    {!Regalloc.Spill.stats}, or ["rejected"] when the allocator raised
    [Failure] (its wording is pinned by [cli_regs.expected]). Entries
    are named e.g. ["KMN/cb/machine/spare512/r20"]. *)

val launch_keys : unit -> (string * string) list
(** The launch-key surface: {!Crat.Engine.launch_key} of every workload
    under every input, for the SSA kernel and for the engine's
    allocation at the app's default register count. Its digest is
    pinned by [test_replay], so a change to how launches are built or
    keyed cannot orphan a store written before it. Entries are named
    e.g. ["KMN/default/ssa"] (app, input label, build). *)

val digest : (string * 'a) list -> string
(** Hex digest of the entries' values, in order (names excluded). *)
