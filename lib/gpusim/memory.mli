(** Sparse word-addressed value store used for global, local and shared
    memory contents. Accesses are assumed naturally aligned; a read of an
    address never written returns zero of the requested type. *)

type t

val create : unit -> t
val read : t -> int64 -> Ptx.Types.scalar -> Value.t
val write : t -> int64 -> Ptx.Types.scalar -> Value.t -> unit
val copy : t -> t
(** A writable copy (also of a frozen image); the copy caches no digest. *)

val freeze : t -> unit
(** Make the image read-only for good: every writer raises
    [Invalid_argument] from now on, {!digest} returns the digest
    computed here, and domains may share it. *)

val size : t -> int
(** Number of distinct locations written. *)

val equal : t -> t -> bool
(** Same written locations with equal values — the oracle of the
    "allocation preserves semantics" property tests. *)

val fold : (int64 -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a

val digest : t -> Digest.t
(** Canonical content fingerprint: two memories that read back
    identically digest identically, regardless of page-table layout,
    insertion order or written-zero slots. Keys the trace-replay
    launch store; a frozen image's is computed once, by {!freeze}. *)

(** {2 Raw accessors}

    Bit-pattern interface used by the interpreter's allocation-free
    fast path. Values are raw 64-bit patterns, stored as
    [Int64.float_of_bits] in [float array]s as in {!Value}'s warp-wide
    kernels, with an explicit float tag (observable only through
    predicate reads); a never-written location reads as zero, not
    float-tagged. *)

val store_bits : t -> int64 -> isf:bool -> int64 -> unit
(** Store an already-truncated pattern. *)

val load_lanes :
  t -> addrs:float array -> lanes:int array -> n:int -> float array -> int
  -> int
(** [load_lanes t ~addrs ~lanes ~n d doff] reads the address whose bit
    pattern is [addrs.(k)] into [d.(doff + lanes.(k))], for [k < n];
    returns the mask of lanes whose location is float-tagged. *)

val store_lanes :
  t -> isf:bool -> addrs:float array -> lanes:int array -> n:int
  -> float array -> int -> unit
(** [store_lanes t ~isf ~addrs ~lanes ~n s soff] stores
    [s.(soff + lanes.(k))] at address [addrs.(k)], for [k] ascending
    (a later lane's store to the same address wins). *)

(** {2 Buffer helpers} *)

val write_f32_array : t -> base:int64 -> float array -> unit
val write_u32_array : t -> base:int64 -> int array -> unit
val read_f32_array : t -> base:int64 -> int -> float array
val read_u32_array : t -> base:int64 -> int -> int array
