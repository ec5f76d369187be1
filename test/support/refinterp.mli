(** Reference SIMT interpreter — the original boxed implementation,
    kept as the semantic oracle for {!Gpusim.Interp}'s predecoded/unboxed
    fast path. The differential property tests step random kernels
    through both in lockstep and require bit-identical register
    contents, control flow and memory. The SIMT control is
    {!Gpusim.Simt}'s. Only the tests run it. *)

open Gpusim

type launch_ctx = Simt.launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
  }
(** {!Gpusim.Simt}'s launch context. *)

type block_ctx = Simt.block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  }

type warp

val make_block : launch_ctx -> ctaid:int -> warp_size:int -> block_ctx * warp list
val is_done : warp -> bool
val pc : warp -> int
val active_mask : warp -> int
val block_of : warp -> block_ctx
val warp_id : warp -> int
val peek : warp -> Ptx.Instr.t option

type exec =
  | E_alu of Ptx.Instr.op_class
  | E_mem of
      { space : Ptx.Types.space
      ; write : bool
      ; width : int
      ; lane_addrs : (int * int64) list
      }
  | E_barrier
  | E_exit

val step : warp -> exec
val read_reg_values : warp -> Ptx.Reg.t -> Value.t array

val run : ?sanitize:Sancheck.runtime -> Launch.t -> Memory.t
(** Whole-launch execution through the reference semantics under
    {!Gpusim.Simt.run_block}, on a copy of the launch's global memory,
    which it returns. [sanitize] arms the hybrid sanitizer; its
    counters are the caller's to inspect afterwards. *)
