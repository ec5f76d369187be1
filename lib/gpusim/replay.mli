(** Dynamic traces: the input of the timing model. A launch is
    executed functionally once and its trace replayed through the
    timing layer arbitrarily many times.

    The timing pipeline ({!Sm}'s scoreboard, LSU, coalescer, caches and
    bank-conflict model) consumes only three things per issued warp
    instruction: the pc (indexing {!Dcode}'s per-pc tables), the active
    mask, and — for shared/global/local accesses — the resolved lane
    addresses. All three are invariant across timing configurations for
    a fixed launch (kernel image, geometry, parameters, initial
    memory): this is the trace-mode decoupling of GPGPU-Sim/Accel-Sim.
    {!Emulator.run} records them per warp in flat growable arrays; a
    {!cursor} then feeds them to the timing layer, which never
    evaluates an operand or writes a register.

    Traces are keyed by {!launch_key} — kernel image, geometry,
    parameters and a canonical {!Memory.digest} of the initial memory,
    explicitly NOT the timing {!Config.t} or TLP limit — so one
    recording serves a whole multi-config sweep. *)

type wtrace
(** One warp's trace: the issued pc sequence with active masks, plus
    the flat lane-address stream consumed by memory events. *)

type t
(** A whole launch's trace: per-[ctaid] per-warp {!wtrace}s, sharing
    the prepared kernel image. *)

val create : Launch.t -> t
(** Empty trace for a launch. It prepares the kernel image once; the
    recording pass and every replay reuse it. *)

val image : t -> Image.t
val block_size : t -> int
val num_blocks : t -> int
val warp_size : t -> int

val events : t -> int
(** Total recorded footprint: issued instructions plus recorded lane
    addresses — the unit of the engine's trace budget. *)

(** {2 Recording}

    The writer is {!Emulator.run}'s [?record]. *)

val wtrace : t -> ctaid:int -> wid:int -> wtrace
(** The warp's trace buffer. Recording appends; a warp is recorded at
    most once per launch (block ids are dispensed globally). *)

val record : wtrace -> pc:int -> mask:int -> unit
(** Append one issued instruction. For a memory instruction
    ([Dcode.exec_of.(pc)] is [E_mem]), exactly [popcount mask] lane
    addresses must follow via {!record_addrs} before the next {!record}. *)

val record_addrs : wtrace -> float array -> int -> unit
(** [record_addrs w src n] appends the first [n] address bit patterns
    of [src] ([Int64.float_of_bits]), e.g. {!Interp.mem_addrs}, with
    one blit. *)

val finish : t -> unit
(** Shrink every warp buffer to its recorded length. Call once after a
    successful recording run, before storing the trace. *)

(** {2 Replay} *)

type cursor
(** A read position in one warp's trace: the stepping surface {!Sm}
    consumes, {!fetch}/{!active_mask}/{!step}/{!mem_count}/{!mem_addr}.
    A cursor is done once its trace is exhausted; a warp whose trace
    was cut short therefore never exits. *)

val cursor : t -> ctaid:int -> wid:int -> cursor
val is_done : cursor -> bool
val warp_id : cursor -> int

val fetch : cursor -> int
(** Next pc to issue, or [-1] when the trace is exhausted. *)

val active_mask : cursor -> int

val step : cursor -> Dcode.exec
(** Advance one event; for [E_mem] the lane addresses become available
    through {!mem_count}/{!mem_addr} until the next {!step}. *)

val mem_count : cursor -> int
val mem_addr : cursor -> int -> int64

val mem_bits : cursor -> float array
(** The trace's address bit patterns; the last {!step}'s are the
    {!mem_count} from {!mem_first} on. *)

val mem_first : cursor -> int

(** {2 Launch keys and persistence} *)

val launch_key : ?kernel_digest:string -> Launch.t -> string
(** Content key of a launch's dynamic trace: digest over the kernel
    image (pass [kernel_digest] to reuse a memoized digest of
    [l.kernel]), block size, grid size, warp size, parameters and the
    canonical initial-memory digest. Ignores timing configuration and
    [tlp_limit] — the trace is schedule-independent for the race-free
    kernels the simulator models. *)

val to_bytes : t -> string
(** Marshal a finished trace (the whole record, prepared image
    included — all pure data) for a persistent store. *)

val of_bytes : string -> t option
(** Unmarshal a {!to_bytes} payload; [None] when the payload does not
    unmarshal. Only feed this checksummed bytes that {!to_bytes} wrote —
    unmarshalling is not type-safe. *)
