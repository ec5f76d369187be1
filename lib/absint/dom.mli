(** Abstract domains for the PTX abstract interpreter.

    Three cooperating views of a register's value:

    - {!Itv}: integer intervals over the [Value.to_int64] semantics of a
      register (finite native ints, with [min_int]/[max_int] standing
      for the infinities). Sound for integer-typed values; floats are
      always top.
    - affine forms [base + tid*%tid.x + cta*%ctaid.x (+ symbol)] over
      the 2^64 ring, generalising the old [Verify.Affine] forms with a
      ctaid coefficient and symbolic parameter bases.
    - a uniformity bit: [true] means every thread of the block observes
      the same value at that program point. *)

module Itv : sig
  type t = private
    { lo : int  (** [min_int] = -oo *)
    ; hi : int  (** [max_int] = +oo *)
    }

  val top : t
  val const : int -> t
  val range : int -> int -> t
  (** [range lo hi] with saturation; [lo > hi] is an error. *)

  val is_top : t -> bool
  val singleton : t -> int option
  val contains : t -> int64 -> bool
  val subset : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  (** [widen old new]: keep stable bounds, push moving ones to oo. *)

  val narrow : t -> t -> t
  (** [narrow old refined]: refine only infinite bounds of [old]. *)

  val equal : t -> t -> bool

  (* transfer helpers; all saturating and sound for the int64 value
     semantics *)
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val rem : t -> t -> t
  val min_ : t -> t -> t
  val max_ : t -> t -> t
  val abs_ : t -> t
  val lognot : t -> t
  val logand : t -> t -> t
  val logor : t -> t -> t
  val logxor : t -> t -> t
  val shl : t -> t -> t
  val shr : signed:bool -> t -> t -> t
  val pp : Format.formatter -> t -> unit
end

(** Base symbol of an affine form. [Sym] is a declared array (shared or
    local); [Param] is the runtime value of a kernel parameter (used for
    global pointer bases). *)
type base =
  | Sym of string
  | Param of string

type aff =
  { sym : base option
  ; tid : int  (** coefficient of [%tid.x] *)
  ; cta : int  (** coefficient of [%ctaid.x] *)
  ; base : int
  ; exact : bool
      (** when true the value is [sym + tid*%tid.x + cta*%ctaid.x + base]
          modulo 2^64 *)
  }

val aff_opaque : aff
val aff_const : int -> aff
val aff_sym : base -> aff
val aff_tid : aff
val aff_ctaid : aff
val aff_equal : aff -> aff -> bool
val aff_join : aff -> aff -> aff
val aff_add : aff -> aff -> aff
val aff_sub : aff -> aff -> aff
val aff_scale : aff -> int -> aff
val aff_mul : aff -> aff -> aff

val decl_sym : aff -> string option
(** [Some s] when the form is exact with a declared-array base. *)

(** The product value: interval x affine x uniformity. *)
type v =
  { itv : Itv.t
  ; aff : aff
  ; uni : bool
  }

val top : v
val const : int -> v
val join : v -> v -> v
val widen : v -> v -> v
val narrow : v -> v -> v
val equal : v -> v -> bool
val pp : Format.formatter -> v -> unit

val type_range : Ptx.Types.scalar -> Itv.t
(** Interval of representable [to_int64] values of the type; unbounded
    for the 64-bit types. *)

val truncate : Ptx.Types.scalar -> v -> v
(** Abstract counterpart of [Value.truncate]: values that provably fit
    the type pass through; otherwise the interval widens to the type
    range and, for sub-64-bit types, the affine form dies (a 64-bit
    wrap is absorbed by the mod-2^64 form semantics). *)
