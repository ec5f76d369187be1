(** Per-pc memory-safety check masks: the runtime half of the hybrid
    sanitizer.

    The static bounds pass ([Absint.Bounds]) classifies every
    shared/local/param access of a kernel as proven-safe, proven-OOB or
    unprovable, and compiles the result into a mask of per-pc {!claim}s
    over the kernel's flat instruction indices. The interpreters
    ({!Interp}, [Machine.Exec] and the reference interpreter in
    [test/support]) consult the mask on every shared and local lane
    access: accesses whose pc carries a [Proven_safe] claim pay nothing
    beyond the lookup (the static proof
    {e discharges} the dynamic check), while [Residual] and
    [Proven_oob] pcs pay a bounds test per lane. A failing test is
    recorded in the {!counters} (per-pc, with a first-violation
    witness) and the lane's access is suppressed, so an out-of-bounds
    spill write can never corrupt a neighbouring thread's slots — or
    crash the local-memory interleaver — under a sanitized run.

    Bounds are expressed against the segment the access was resolved
    to: {b shared} bounds are absolute byte offsets into the block's
    shared region, {b local} bounds are byte offsets into the thread's
    (naive, pre-interleave) local frame. [Per_thread] bounds carry the
    TLP-dependent sub-stack layout of the shared spill region: thread
    [tid] may only touch [base + tid*stride, base + (tid+1)*stride). *)

type bound =
  | Segment of
      { lo : int
      ; hi : int
      }  (** the access footprint must fall inside [lo, hi) *)
  | Per_thread of
      { base : int
      ; stride : int
      }
      (** per-thread sub-stack: lane with in-block thread id [t] must
          stay inside [base + t*stride, base + (t+1)*stride) *)

type claim =
  | Proven_safe of bound
      (** statically proven in bounds; checked only in a [force]d mask *)
  | Proven_oob of bound  (** statically proven out of bounds *)
  | Residual of bound  (** unprovable: the dynamic check remains armed *)

type t
(** An immutable per-pc check mask for one prepared kernel. *)

val make : ?force:bool -> num_instrs:int -> (int * claim) list -> t
(** [force] (default false) arms the bounds test even on [Proven_safe]
    pcs — the soundness-harness mode: a violation recorded at a
    proven-safe pc disproves the static analysis. *)

val claim_at : t -> int -> claim option
(** [None] when the pc carries no claim (not a sanitized access). *)

val is_empty : t -> bool

(** {1 Runtime counters} *)

type violation =
  { v_pc : int
  ; v_lane : int  (** lane within the warp *)
  ; v_tid : int  (** thread id within the block *)
  ; v_addr : int64  (** segment-relative byte offset of the access *)
  }

type stat =
  { mutable seen : int  (** lane accesses monitored at this pc *)
  ; mutable checked : int  (** lane accesses that paid a bounds test *)
  ; mutable violations : int
  ; mutable first : violation option  (** earliest recorded violation *)
  }

type counters

val counters : unit -> counters
val stats : counters -> (int * stat) list
(** Per-pc counters, ascending by pc. *)

val seen : counters -> int
val checked : counters -> int
val violations : counters -> int
val first_violation : counters -> violation option

(** {1 The armed sanitizer an interpreter carries} *)

type runtime =
  { mask : t
  ; counters : counters
  }

val runtime : t -> runtime
(** Fresh counters over [mask]. *)

val check :
  runtime -> pc:int -> lane:int -> tid:int -> width:int -> rel:int64 -> bool
(** Monitor one lane access: [rel] is the segment-relative byte offset
    (absolute shared offset, or the offset into the thread's local
    frame), [tid] the in-block thread id, [width] the access bytes.
    Returns [true] when the access may proceed — either the pc carries
    no armed test, or the footprint passed its bound. [false] records a
    violation; the caller must suppress the lane's access. *)
