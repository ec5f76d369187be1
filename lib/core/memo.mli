(** Claim-or-wait memo: one thread-safe table of content-addressed
    answers, shared by every caller — batches on any domain and daemon
    connections alike.

    A key is absent, {e pending} (a caller claimed it and is computing
    it) or {e ready}. A caller that claims a key must {!publish} or
    {!abandon} it; a caller that finds it pending waits instead of
    computing it again. Ready values are evicted oldest-first once their
    summed [weight] passes [budget]; a value heavier than the whole
    budget is never kept. With a {!Store.t} and a kind, published values
    are written through under that kind, and claimed misses are read back
    from it; store I/O runs outside the lock. Without one the memo lives
    and dies with the process. *)

type 'v t

val create :
  ?budget:int -> ?weight:('v -> int) -> ?store:Store.t * string -> unit -> 'v t
(** [budget] defaults to unbounded, [weight] to [fun _ -> 1]. *)

type 'v slot =
  | Ready of 'v
  | Pending  (** claimed by another caller *)
  | Claimed  (** claimed by this call, and absent from the store *)

val claim : ?fetch:bool -> 'v t -> string list -> 'v slot list
(** Claim every absent key of a list of distinct keys in one critical
    section, then look the claimed ones up in the store (unless [fetch]
    is [false]); store hits come back [Ready]. *)

val publish : 'v t -> string -> 'v -> unit
(** Make a key ready, wake its waiters and write it through. *)

val abandon : 'v t -> string -> unit
(** Drop a claim that will not be published; its waiters wake and
    contend for it again. A no-op unless the key is pending. *)

val find : 'v t -> string -> 'v option
(** Wait while the key is pending, then answer from memory or, failing
    that, from the store. Claims nothing. *)

val get_or_compute :
  ?fetch:bool -> 'v t -> string -> (unit -> 'v) -> 'v * [ `Hit | `Waited | `Computed ]
(** One key through the whole protocol: a hit (memory or store), a wait
    on another caller's claim, or a computation under a claim that is
    abandoned if it raises. *)

val clear : 'v t -> unit
(** Forget every value and claim; waiters wake and re-contend. *)
