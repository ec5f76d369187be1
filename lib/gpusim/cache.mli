(** Set-associative cache with LRU replacement and a bounded MSHR file,
    plus a DRAM bandwidth/latency model. Misses to the same line merge
    into the outstanding MSHR; when every MSHR is busy the access fails
    reservation and must be replayed — these reservation failures are the
    "pipeline stall caused by the congestion of cache requests" the paper
    measures (Figure 5b). *)

(** Outcome of a cache access at a given cycle. *)
type result =
  | Hit
  | Miss of int  (** data available at this cycle (includes merges) *)
  | Reserve_fail  (** all MSHRs in flight — replay the access *)

type stats =
  { mutable reads : int
  ; mutable read_hits : int
  ; mutable writes : int
  ; mutable write_hits : int
  ; mutable reserve_fails : int
  ; mutable writebacks : int
  ; mutable fills : int
  }

val fresh_stats : unit -> stats
val read_hit_rate : stats -> float

(** DRAM: fixed latency plus a bandwidth queue. *)
module Dram : sig
  type t

  val create : latency:int -> bytes_per_cycle:int -> t
  val request : t -> cycle:int -> bytes:int -> int
  (** Completion cycle of a transfer issued at [cycle]. *)

  val traffic_bytes : t -> int
end

type t

val create :
  name:string
  -> bytes:int
  -> assoc:int
  -> line:int
  -> mshrs:int
  -> hit_latency:int
  -> next:(cycle:int -> lineno:int -> result)
  -> t
(** [line] is the line size in bytes. [next] is the next level in the
    hierarchy: it returns the completion result for a fill of line
    [lineno] (a [Dram.request] wrapped as [Miss], or an L2 access with
    the same line size). *)

val access : t -> cycle:int -> lineno:int -> write:bool -> write_alloc:bool -> result
(** One access to line number [lineno] (the byte address divided by
    the line size, as {!Coalescer.segment} gives it; at least 0). It
    lives in set [lineno mod sets]. Global stores use
    [write_alloc:false] (write-through, no allocate); local-memory spill
    traffic uses [write_alloc:true] (write-back with allocate), matching
    GPGPU-Sim's local-memory policy. *)

val stats : t -> stats
val mshrs_free_at : t -> int
(** When every MSHR was in flight at the last access, the cycle the
    earliest of them completes: until then each allocating miss fails
    reservation. [0] when one was free. *)
