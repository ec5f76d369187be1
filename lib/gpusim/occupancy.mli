(** Occupancy calculator: the maximum number of thread blocks that can
    run concurrently on one SM ("GPU kernels launch as many thread blocks
    concurrently as possible until one or more dimension of resources are
    exhausted", Section 2.1).

    With the machine backend, a kernel also consumes the per-SM scalar
    register file at a per-{e warp} rate ([sregs_per_warp]); the PTX
    backend reports 0 there, which disables the constraint. *)

type usage =
  { regs_per_thread : int  (** vector-file 32-bit units per thread *)
  ; sregs_per_warp : int  (** scalar-file 32-bit units per warp; 0 = none *)
  ; block_size : int
  ; shared_per_block : int  (** bytes *)
  }

(** The resource dimension that binds at [max_tlp]. *)
type limit =
  | Thread_slots
  | Block_slots
  | Registers of [ `Vector | `Scalar ]
  | Shared_memory

val limit_to_string : limit -> string
(** Human spelling: "threads", "thread blocks", "registers",
    "scalar registers", "shared memory". *)

val max_tlp : Config.t -> usage -> int
(** Minimum over the threads, blocks, vector and scalar register-file
    and shared-memory constraints; 0 when a single block cannot fit. *)

val limiting_resource : Config.t -> usage -> limit
(** The dimension that would be exceeded by running [max_tlp + 1]
    blocks (checked in the order threads, blocks, vector registers,
    scalar registers, shared memory — the first violated wins);
    [Block_slots] when nothing binds below the hard block cap. *)

val register_utilization : Config.t -> usage -> tlp:int -> float
(** Fraction of the SM (vector) register file held by [tlp] concurrent
    blocks — the metric of the paper's Figures 1(b), 7 and 15. *)

val shared_utilization : Config.t -> usage -> tlp:int -> float

val spare_shared_bytes : Config.t -> usage -> tlp:int -> int
(** Shared memory per block still unused when running [tlp] blocks — the
    [SpareShmSize] input of Algorithm 1. Spilling into this budget cannot
    reduce the TLP below [tlp]. *)
