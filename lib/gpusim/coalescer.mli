(** The one definition of a warp access's memory cost: the L1-line
    segments its lane addresses coalesce into, and its shared-memory
    bank-conflict degree. The timing model ({!Sm}) and the profiler
    ({!Profile}) both {!load} an access from a recorded trace's lanes,
    the static segmenter ([Crat.Segments]) from the interpreter's lane
    scratch. A scratch is allocated once; nothing after that allocates.
    A line or word index is the byte address divided by the size,
    rounded toward zero (sizes are powers of two, so it is a shift). *)

type t

val create : lanes:int -> line:int -> banks:int -> t
(** Scratch for up to [lanes] lane addresses, [line]-byte L1 lines and
    [banks] 4-byte shared-memory banks.
    @raise Invalid_argument unless [line] is a power of two. *)

val load : t -> float array -> int -> int -> unit
(** [load t src off n] starts a new access whose [n] lane addresses are
    the bit patterns ([Int64.float_of_bits]) [src.(off)] to
    [src.(off + n - 1)], copied with one blit. *)

val segments : t -> int
(** Number of distinct L1-line indices; they are left ascending for
    {!segment}. *)

val segment : t -> int -> int
(** The [i]-th distinct line index of the last {!segments}. *)

val bank_degree : t -> int
(** Most distinct 4-byte words falling in one bank (same-word lanes
    broadcast), at least 1. A word's bank is its signed remainder, so
    negative words form classes of their own. *)
