(** Kernel-shape combinators.

    Each of the paper's 22 applications is a parameterisation of one of
    these shapes; the knobs control exactly the properties CRAT's design
    space depends on:
    - [live]: simultaneously-live temporaries per inner iteration — sets
      the register demand (MaxReg) and therefore the spill count at a
      given register limit;
    - [ws_words] (runtime parameter "ws"): per-block working-set words —
      together with the TLP this decides L1 thrashing;
    - [flops]: arithmetic per loaded value (single-thread compute);
    - [sfu_every]: apply an SFU op to every n-th value (0 = never);
    - [shm_words]: statically declared shared memory per block.

    All shapes read [inp]/[out] (u64 pointers), [ws], [iters] and
    [passes] (u32) as kernel parameters, so one kernel serves every
    input scale. *)

type knobs =
  { live : int
  ; mem_live : int
      (** how many of the [live] values are loaded from memory; the rest
          are synthesised arithmetically. Decouples register pressure
          ([live]) from the per-block footprint
          ([iters * mem_live * ntid * 4] bytes), so a pass revisits each
          cache line exactly once and reuse is pass-separated — L1
          capacity, not miss merging, decides the hit rate *)
  ; flops : int
  ; sfu_every : int
  ; naccs : int  (** independent accumulators (long live ranges) *)
  }

val tiled_reuse : name:string -> knobs -> Ptx.Kernel.t
(** Each block repeatedly sweeps its own [ws]-word region of global
    memory ([passes] passes of [iters] inner steps, [live] coalesced
    loads each). The canonical cache-sensitive shape (CFD, KMN, ...). *)

val streaming : name:string -> knobs -> Ptx.Kernel.t
(** No reuse: every load targets a fresh address ([gtid]-strided).
    Register/compute bound (BLK, ESP, ...). *)

val stencil3 : name:string -> knobs -> Ptx.Kernel.t
(** 3-point stencil over the block's tile with halo; neighbouring
    threads share cache lines and passes revisit the tile (FDTD, STE,
    HST). *)

val shared_tile : name:string -> shm_words:int -> knobs -> Ptx.Kernel.t
(** Stage the tile into a declared shared array, barrier, compute from
    shared with reuse, barrier, write back (NW, LUD, SGM). *)

val reduction : name:string -> shm_words:int -> knobs -> Ptx.Kernel.t
(** Per-thread partial accumulation over the region, then a
    shared-memory tree reduction with barriers (STM, BAK). *)

val gather : name:string -> knobs -> Ptx.Kernel.t
(** Data-dependent gather through an index array at {!Data.aux_base}
    plus a divergent branch (MUM, BFS, PTF). *)
