(** Crash-safe, content-addressed on-disk store.

    The engine's memos (launch traces, allocations, statistics) are
    keyed by structural content digests; this module gives those keys a
    durable home across processes: a directory of immutable entries
    addressed by [(kind, key)], where [kind] namespaces the value family
    (["trace"], ["stats"], ["alloc"]) and [key] is the engine's hex
    digest.

    Durability discipline:
    - Writes are atomic: an entry is streamed to [tmp/] inside the store
      directory, fsynced, and [rename]d into place. A writer killed
      mid-write leaves at most a stale temp file, which the next
      {!open_} removes; a reader can never observe a torn entry.
    - Every entry carries a self-describing header (format magic,
      payload MD5, payload length). {!get} verifies both before
      returning; a corrupt entry (disk fault, truncation) is deleted and
      reported as absent rather than returned.
    - A [MANIFEST] file records per-entry sizes and logical access
      times. It is advisory: {!open_} reconciles it against a directory
      scan, so deleting or corrupting the manifest loses only LRU
      recency, never data.

    Budget: the summed on-disk entry bytes are bounded by a byte budget;
    inserting past it evicts least-recently-used entries first. Reads do
    not pin entries: an entry evicted (its file unlinked) while {!get}
    reads it either reads whole or reads as absent.

    All operations are thread-safe (one internal mutex). One process
    owns a store directory at a time; concurrent opens of the same
    directory are not coordinated. *)

type t

type stats =
  { entries : int
  ; bytes : int  (** summed on-disk entry bytes (headers included) *)
  ; budget : int
  ; hits : int
  ; misses : int
  ; puts : int
  ; evictions : int
  ; corrupt : int  (** entries dropped by checksum/length verification *)
  }

val default_budget : int
(** 512 MiB. *)

val open_ : ?budget:int -> string -> t
(** Open (creating if needed) the store rooted at a directory: remove
    stale temp files, scan the entries on disk, and fold in the
    manifest's recency data. [budget] (default {!default_budget}) is the
    byte budget enforced by {!put}.
    @raise Sys_error when the directory cannot be created. *)

val budget : t -> int
val bytes : t -> int

val put : t -> kind:string -> key:string -> string -> unit
(** Insert a payload under [(kind, key)] via tmp-file + atomic rename,
    then evict LRU entries until the byte budget holds again. Entries
    are immutable: a [put] over an existing key only refreshes its
    recency (content-addressed keys make the payload identical by
    construction). *)

val get : t -> kind:string -> key:string -> string option
(** Fetch and verify a payload; refreshes the entry's recency. Returns
    [None] for absent entries and for entries that fail header
    verification (which are deleted). *)

val mem : t -> kind:string -> key:string -> bool

val delete : t -> kind:string -> key:string -> unit

val put_value : t -> kind:string -> key:string -> 'a -> unit
(** [put] of [Marshal.to_string v]. The value must be closure-free. *)

val get_value : t -> kind:string -> key:string -> 'a option
(** [get] plus unmarshalling. Type-unsafe like [Marshal.from_string]:
    only read a [(kind, key)] with the type that was written there —
    content-addressed keys make cross-type aliasing vanishingly
    unlikely, and the header checksum rejects torn payloads. Returns
    [None] when absent or when unmarshalling fails. *)

val stats : t -> stats

val close : t -> unit
(** Persist the manifest and drop the in-memory index; further use
    raises [Invalid_argument]. {!put} persists the manifest only every
    few dozen insertions (it is advisory — sizes and LRU recency — so
    rewriting it on every put would only serialize the write-through hot
    path behind O(entries) disk I/O). *)
