(** Boxed SIMT control, shared by the reference interpreter
    ({!Refinterp}) and the machine-ISA executor ([Machine.Exec]).

    A warp carries a reconvergence stack of [(next pc, join pc, mask)]
    entries whose join points come from the image's post-dominator
    table; this module owns that stack, thread geometry, special
    registers, the lane-memory path with its sanitizer probes, and the
    barrier-quantum block scheduler. A client supplies only instruction
    semantics over its own register file ['rf]. {!Interp} keeps its own
    array-stack implementation, so {!Interp} vs {!Refinterp} stays an
    independent differential oracle. *)

type launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
      (** armed sanitizer: shared/local lane accesses are checked
          against its per-pc mask, and violating lanes suppressed *)
  }

val launch_ctx : ?sanitize:Sancheck.runtime -> image:Image.t -> Launch.t -> launch_ctx
(** The launch's memory, parameters and geometry, executing [image]. *)

type block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  }

type 'rf warp

val make_block :
  launch_ctx -> ctaid:int -> warp_size:int -> (unit -> 'rf) -> block_ctx * 'rf warp list
(** A block's warps, each with a fresh register file.
    @raise Invalid_argument unless [block_size] is a positive multiple
    of [warp_size]. *)

val is_done : 'rf warp -> bool
val pc : 'rf warp -> int
val active_mask : 'rf warp -> int
val block_of : 'rf warp -> block_ctx
val warp_id : 'rf warp -> int
val nlanes : 'rf warp -> int
val regs : 'rf warp -> 'rf

val fetch : 'rf warp -> 'i array -> 'i option
(** The instruction of [code] the next {!step} executes; [None] when the
    warp is done or past the end of [code]. *)

val step : 'rf warp -> 'i array -> exit:'a -> (pc:int -> mask:int -> 'i -> 'a) -> 'a
(** [step w code ~exit exec] runs [exec ~pc ~mask insn] on the next
    instruction of [code], after advancing the pc to [pc + 1]; a warp
    past the end of [code] finishes and returns [exit].
    @raise Invalid_argument on a finished warp. *)

val iter_active : 'rf warp -> int -> (int -> unit) -> unit
(** [iter_active w mask f] calls [f] on each lane of [mask], ascending. *)

val jump : 'rf warp -> int -> unit
(** Uniform branch (inside {!step}'s callback). *)

val branch : 'rf warp -> pc:int -> mask:int -> target:int -> (int -> bool) -> unit
(** Conditional branch at [pc]: the lanes of [mask] satisfying the
    predicate go to [target]. A split pushes both paths, taken first,
    to rejoin at the reconvergence pc. *)

val exit_warp : 'rf warp -> unit
(** Finish the warp. @raise Failure under divergence. *)

val special : 'rf warp -> int -> Ptx.Reg.special -> Value.t
(** A special register's value in a lane. *)

val local_addr : 'rf warp -> int -> int -> int64
(** [local_addr w lane off]: naive per-thread address of the local
    symbol at frame offset [off]. *)

val lane_mem :
  'rf warp -> pc:int -> lane:int -> width:int -> Ptx.Types.space -> int64
  -> (Memory.t * int64) option
(** Where a lane's access lands: shared addresses in the block's shared
    memory, local ones interleaved into global memory, the rest in
    global memory as is. [None] when the armed sanitizer suppresses the
    lane (the violation is recorded in its counters). *)

type outcome =
  | Step
  | Barrier  (** reached [bar.sync] *)
  | Exit

val run_block : is_done:('w -> bool) -> warps:'w list -> step:('w -> outcome) -> unit
(** Barrier-quantum scheduling of one block: each warp, in order, steps
    until it reaches a barrier or exits; a barrier is released when
    every warp that has not exited waits at it.
    @raise Failure if warps remain that can make no progress. *)

exception Over_budget

val budget : int option -> ('w -> outcome) -> 'w -> outcome
(** [budget (Some n) step] is [step] counting the warp instructions it
    runs, across every block it steps: the one after the [n]th raises
    {!Over_budget} instead. [budget None step] is [step]. *)
