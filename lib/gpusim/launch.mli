(** The one launch record shared by every execution entry point.

    Historically each front-end spelled the same launch differently —
    [Sm.launch], [Gpu.launch], the emulator's record plus a separate
    memory argument, and labelled-argument tuples on the reference
    interpreter's [run] / [Profile.run] / [Trace.warp_trace]. This
    module is the single spelling: kernel, geometry, parameters and the
    global memory image, with [warp_size] defaulted to 32 and the TLP
    knob carried along for the timing layer (functional front-ends
    ignore it). *)

type t =
  { kernel : Ptx.Kernel.t
  ; block_size : int  (** threads per block; positive multiple of [warp_size] *)
  ; num_blocks : int  (** grid size (total thread blocks) *)
  ; tlp_limit : int  (** concurrent blocks per SM (the TLP knob) *)
  ; params : (string * Value.t) list
  ; memory : Memory.t
      (** the initial global memory; never written: each execution runs
          on its own copy ({!Simt.launch_ctx}) *)
  ; warp_size : int
  }

val make :
  ?warp_size:int
  -> ?tlp_limit:int
  -> ?params:(string * Value.t) list
  -> kernel:Ptx.Kernel.t
  -> block_size:int
  -> num_blocks:int
  -> Memory.t
  -> t
(** [warp_size] defaults to 32, [tlp_limit] to 1, [params] to [[]].
    @raise Invalid_argument when [block_size] is not a positive multiple
    of [warp_size], or [num_blocks]/[tlp_limit] is not positive. *)

val with_tlp : t -> int -> t
(** Same launch under a different TLP limit. *)
