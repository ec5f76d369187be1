(** A kernel prepared for execution: flattened body, reconvergence table
    from post-dominators, and resolved offsets for shared/local array
    declarations. *)

type t =
  { kernel : Ptx.Kernel.t
  ; flow : Cfg.Flow.t
  ; reconv : int array
      (** per instruction index: the reconvergence pc of a (conditional)
          branch at that index; [num_instrs] when control only
          reconverges at kernel exit *)
  ; shared_offsets : (string * int) list
  ; shared_decl_bytes : int  (** bytes of declared shared arrays per block *)
  ; local_offsets : (string * int) list
  ; local_frame_bytes : int  (** per-thread local frame *)
  ; code : Dcode.t
      (** predecoded execution form of [flow.instrs] (see {!Dcode}) *)
  }

val prepare : Ptx.Kernel.t -> t
val num_instrs : t -> int

val layout_decls :
  Ptx.Kernel.decl list -> Ptx.Types.space -> (string * int) list * int
(** Sequential aligned layout of the declarations of one space:
    per-symbol byte offsets in declaration order, and the total segment
    bytes (rounded up to 8). This is the layout both interpreters load
    at, so static address analyses ([Absint]) may treat the offsets as
    exact. *)

val local_base : int64
(** Start of the per-thread local-memory heap in the global address
    space. *)

(** Per-thread (naive, frame-contiguous) address of a local symbol. *)
val local_addr : t -> global_tid:int -> sym_offset:int -> int64

(** Translate a naive frame address ([local_addr] base + byte offset)
    into the interleaved layout. Like real GPUs, local memory is
    interleaved: word [w] of thread [g] lives at
    [local_base + (w * stride + g) * 4], so the 32 lanes of a warp
    accessing the same spill slot touch consecutive words and coalesce
    into one or two cache lines. The kernel adds its own byte offsets to
    the symbol base, so interleaving is applied at access time. *)
val remap_local : t -> global_tid:int -> int64 -> int64

(** {2 Warp-wide forms}

    Lane [l] has global thread id [global_tid0 + l]; addresses are raw
    bit patterns ([Int64.float_of_bits]) in [float array]s, as in
    {!Value}'s warp-wide kernels. *)

val local_addr_lanes :
  t -> global_tid0:int -> sym_offset:int -> mask:int -> n:int
  -> float array -> int -> unit
(** {!local_addr} into [d.(doff + l)] for the lanes [l] of [mask]. *)

val remap_local_lanes :
  t -> global_tid0:int -> addrs:float array -> lanes:int array -> n:int
  -> unit
(** {!remap_local} in place on [addrs.(k)], lane [lanes.(k)], [k < n]. *)

val shared_offset : t -> string -> int
