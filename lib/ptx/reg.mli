(** Virtual registers and special (built-in) registers.

    Kernels produced by the front end are in SSA style: every new value
    gets a fresh virtual register, exactly as nvcc-emitted PTX assumes an
    infinite register set (paper, Section 5.1). The allocator later maps
    virtual registers onto a bounded physical set. *)

type t = private
  { id : int  (** unique within a kernel *)
  ; ty : Types.scalar
  }

val make : int -> Types.scalar -> t
val id : t -> int
val ty : t -> Types.scalar
val equal : t -> t -> bool
val compare : t -> t -> int
(** By [id], then by [ty] in {!Types.scalar}'s declaration order. *)

val hash : t -> int

val name : t -> string
(** PTX-style spelling, determined by the width class: ["%r3"] for 32-bit,
    ["%d1"] for 64-bit, ["%p0"] for predicates. *)

val add_name : Buffer.t -> t -> unit
(** Append {!name} to the buffer. *)

(** Built-in read-only special registers. *)
type special =
  | Tid_x
  | Tid_y
  | Ctaid_x
  | Ctaid_y
  | Ntid_x
  | Ntid_y
  | Nctaid_x
  | Nctaid_y
  | Laneid
  | Warpid

val special_to_string : special -> string
(** PTX spelling, e.g. ["%tid.x"]. *)

val special_of_string : string -> special option
val equal_special : special -> special -> bool

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
