(** Runtime values of the functional interpreter. Integers are carried as
    [int64] and truncated to the operation width at each step; floats are
    carried at double precision (single-precision rounding is applied for
    [f32] results). *)

type t =
  | I of int64
  | F of float

val zero : t
val to_bits : t -> int64
val of_int : int -> t
val is_f : t -> bool

val truncate : Ptx.Types.scalar -> t -> t
(** Normalise a value to the given type: mask integers to the width (with
    sign extension for signed types), round floats to [f32] when needed,
    coerce representation (bits reinterpretation between I/F). *)

val to_float : t -> float
val to_int64 : t -> int64
val to_bool : t -> bool

val binop : Ptx.Instr.binop -> Ptx.Types.scalar -> t -> t -> t
val unop : Ptx.Instr.unop -> Ptx.Types.scalar -> t -> t
val mad : Ptx.Types.scalar -> t -> t -> t -> t
val compare_values : Ptx.Instr.cmp -> Ptx.Types.scalar -> t -> t -> bool
val convert : dst:Ptx.Types.scalar -> src:Ptx.Types.scalar -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Bit patterns}

    A value is equivalently a 64-bit pattern plus a constructor tag
    [isf] ([I i] ↔ pattern [i]; [F f] ↔ pattern [Int64.bits_of_float f]).
    The interpreter's allocation-free fast path stores only patterns (and
    a per-lane tag bit where the tag is observable) in flat register
    files, and evaluates instructions through the warp-wide kernels
    below. The boxed API above and those kernels are built from the
    same per-element code, so the representations cannot drift apart.
    The tag is observable only through [to_int64]: integer conversion
    of a float, [to_bool_bits] and predicate truncation. *)

val of_bits : Ptx.Types.scalar -> int64 -> t
(** Box a bit pattern: [F]-tagged iff the type is a float type. *)

val to_bool_bits : isf:bool -> int64 -> bool
val truncate_bits : Ptx.Types.scalar -> isf:bool -> int64 -> int64
val binop_bits : Ptx.Instr.binop -> Ptx.Types.scalar -> int64 -> int64 -> int64
val unop_bits : Ptx.Instr.unop -> Ptx.Types.scalar -> int64 -> int64
val mad_bits : Ptx.Types.scalar -> int64 -> int64 -> int64 -> int64
val compare_bits : Ptx.Instr.cmp -> Ptx.Types.scalar -> int64 -> int64 -> bool
val convert_bits : dst:Ptx.Types.scalar -> src:Ptx.Types.scalar -> int64 -> int64
val round_f32 : float -> float

(** {2 Warp-wide kernels}

    One instruction over a warp's lanes, with the opcode and type
    decoded once. Lane values are raw 64-bit patterns stored as
    [Int64.float_of_bits] in a [float array]; each source and
    destination is an array and the offset of lane 0, so a flat
    register file is read and written in place (a destination may
    coincide with a source). Only the lanes set in [mask] (of [n])
    are touched, and an operation that rejects its type (a bitwise
    float op, an SFU op on integers) raises only when [mask] is
    non-empty. Each computes exactly what the scalar kernel of the
    same name computes per lane: both are built from the same
    per-element functions. *)

val truncate_lanes :
  Ptx.Types.scalar -> fmask:int -> mask:int -> n:int -> float array -> int
  -> float array -> int -> unit
(** [truncate_bits], with lane [l] float-tagged iff bit [l] of [fmask]
    is set (observable only for [Pred]). *)

val binop_lanes :
  Ptx.Instr.binop -> Ptx.Types.scalar -> mask:int -> n:int -> float array
  -> int -> float array -> int -> float array -> int -> unit

val mad_lanes :
  Ptx.Types.scalar -> mask:int -> n:int -> float array -> int
  -> float array -> int -> float array -> int -> float array -> int -> unit

val unop_lanes :
  Ptx.Instr.unop -> Ptx.Types.scalar -> mask:int -> n:int -> float array
  -> int -> float array -> int -> unit

val convert_lanes :
  dst:Ptx.Types.scalar -> src:Ptx.Types.scalar -> mask:int -> n:int
  -> float array -> int -> float array -> int -> unit

val compare_lanes :
  Ptx.Instr.cmp -> Ptx.Types.scalar -> mask:int -> n:int -> float array
  -> int -> float array -> int -> int
(** The lanes of [mask] whose comparison holds. *)

val true_lanes : fmask:int -> mask:int -> n:int -> float array -> int -> int
(** The lanes of [mask] whose value is true ([to_bool_bits]). *)

val to_int64_lanes :
  fmask:int -> mask:int -> n:int -> float array -> int -> float array
  -> int -> unit
(** The integer value per lane: [Int64.of_float] of a float-tagged
    lane's value, the pattern itself otherwise (addresses from possibly
    float-tagged registers). *)
