(** The simulator's fingerprint surfaces, shared by [test_replay]
    (which pins their digests) and [bench/statdump.exe] (which prints
    them for diffing between two builds). Every surface runs each
    workload's default build and its r20 build, allocated at
    [reg_limit:20] with [`Spare 512] shared spilling. *)

val with_memory_copy : Gpusim.Launch.t -> Gpusim.Launch.t

val record : Gpusim.Launch.t -> Gpusim.Replay.t
(** The launch's finished trace, recorded on a memory copy. *)

val statdump :
  ?blocks:int
  -> ?tlps:int list
  -> unit
  -> (string * Gpusim.Launch.t * Gpusim.Stats.t) list
(** The [model_epoch] surface: every workload at [blocks] (default 2)
    blocks, both builds at each TLP in [tlps] (default [[1; 3]]), cold
    Fermi runs under GTO and static TLP, e.g. ["KMN/r20/tlp3"]. Each
    launch is returned with its initial memory. *)

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

val digest : (string * Gpusim.Stats.t) list -> string
(** Hex digest of the statistics, in order (names excluded). *)
