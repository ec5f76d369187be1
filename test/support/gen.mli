(** QCheck generators for random-but-valid PTX kernels, plus shared
    helpers for differential testing. *)

val kernel :
  ?max_ops:int -> ?with_loop:bool -> ?with_branch:bool -> ?with_shared:bool ->
  ?wide:bool -> unit -> Ptx.Kernel.t QCheck.Gen.t
(** Random kernels over parameters [inp]/[out] (u64 pointers) and [n]
    (u32): u32/f32 arithmetic chains over previously defined registers,
    global loads from bounded indices, conditional accumulation and an
    optional counted loop; always ends storing a result to
    [out[gtid]]. Every generated kernel passes {!Ptx.Kernel.validate}.
    [with_shared] (default off) adds a shared tile with a provably-safe
    affine store, an interval-bounded load, and a data-dependent store
    whose index can really escape the array — sanitizer fodder.
    [wide] (default off) widens the operation mix to s32, u64 and f64
    arithmetic (negative values and values past 2^32 from the start),
    [div]/[rem]/[shl]/[shr], mad.f64, signed [setp] and int<->int and
    int<->float [cvt]s: every arithmetic form of the interpreter's
    warp-wide kernels. *)

val arbitrary_kernel : Ptx.Kernel.t QCheck.arbitrary
(** With a printer attached (PTX text). *)

val arbitrary_wide_kernel : Ptx.Kernel.t QCheck.arbitrary
(** [kernel ~wide:true ()], with a printer. *)

val run_emulated :
  ?block_size:int -> ?num_blocks:int -> Ptx.Kernel.t -> float array
(** Emulate the kernel on a deterministic input image and return the
    output buffer (one f32 per thread). *)

val outputs_equal : float array -> float array -> bool
(** Bitwise equality per element (deterministic arithmetic). *)
