(** SIMT functional interpreter — allocation-free fast path.

    Warps of [warp_size] lanes execute instructions in lock-step under
    an active mask; divergent branches push entries on a reconvergence
    stack whose join points come from post-dominator analysis
    ({!Image}). Memory effects are applied immediately (weak
    consistency, as on real GPUs); the timing layer only delays
    register availability.

    The interpreter runs the predecoded form ({!Dcode}) carried by the
    image: flat per-warp register files of raw bit patterns, an array
    reconvergence stack and a reusable lane-address scratch buffer, so
    the steady-state [step] allocates nothing. Semantics are defined by
    the reference interpreter in [test/support] (the original boxed
    interpreter), with differential property tests keeping the two in
    lockstep agreement.

    {!Emulator} drives it: that functional pass records the traces
    the cycle-level simulator ({!Sm}) replays, and serves as the
    oracle of the semantics-preservation property tests. *)

type launch_ctx = Simt.launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
  }
(** {!Simt}'s launch context. *)

type block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  ; param_bits : int64 array
      (** per {!Dcode} param index: raw value bits (internal) *)
  ; param_isf : bool array  (** float-tagged? (internal) *)
  ; param_ok : bool array  (** bound in the launch? (internal) *)
  }

type warp

val make_block : launch_ctx -> ctaid:int -> warp_size:int -> block_ctx * warp list
(** Create a block's warps. [block_size] must be a positive multiple of
    [warp_size]. *)

val is_done : warp -> bool
val pc : warp -> int
val active_mask : warp -> int
val block_of : warp -> block_ctx
val warp_id : warp -> int  (** index within the block *)

val peek : warp -> Ptx.Instr.t option
(** The instruction the next {!step} will execute; [None] when done. *)

val fetch : warp -> int
(** Non-allocating {!peek}: the normalized pc the next {!step} will
    execute, or [-1] when the warp is done (or past the end of the
    code). Index into the image's [Dcode] per-pc arrays. *)

(** What a step did, for the timing layer (= {!Dcode.exec};
    preallocated per pc, so [step] returns an existing block). *)
type exec = Dcode.exec =
  | E_alu of Ptx.Instr.op_class
      (** register-to-register work (incl. control, param/const loads) *)
  | E_mem of
      { space : Ptx.Types.space
      ; write : bool
      ; width : int
      }
      (** lane addresses are exposed via {!mem_count}/{!mem_addr}/
          {!mem_lane}, valid until the warp's next step *)
  | E_barrier
  | E_exit

val step : warp -> exec
(** Execute one instruction. @raise Failure on a divergent [ret]. *)

val mem_count : warp -> int
(** Number of (lane, address) pairs recorded by the last [E_mem] step. *)

val mem_addr : warp -> int -> int64
(** [i]-th recorded address, in ascending lane order. *)

val mem_addrs : warp -> float array
(** The recorded addresses as bit patterns ([Int64.float_of_bits]):
    the first {!mem_count} entries, in {!mem_addr}'s order. The buffer
    is the warp's own, overwritten by its next step. *)

val mem_lane : warp -> int -> int
(** [i]-th recorded lane, ascending. *)

val popcount : int -> int
(** Number of set bits — active lanes of a mask. Branch-free SWAR. *)

val read_reg_values : warp -> Ptx.Reg.t -> Value.t array
(** Current per-lane values of a register (testing/debugging). *)
