(** Blocking client for the crat daemon. One [t] is one connection; a
    connection handles any number of sequential requests. Not
    thread-safe — use one connection per thread/process. *)

type t

val connect : ?socket:string -> unit -> (t, string) result

val connect_retry :
  ?socket:string -> ?attempts:int -> unit -> (t, string) result
(** Like {!connect} but polls (50 ms apart, [attempts] times, default
    100) until the daemon answers — for use right after starting one. *)

val close : t -> unit

val simulate_iter :
     t
  -> Protocol.point list
  -> f:(int -> Gpusim.Stats.t -> unit)
  -> (int, string) result
(** Run the batch and call [f index stats] per [Result] frame as it is
    read ([index] is the request position); returns the result count.
    The daemon writes the frames only once the whole batch is simulated,
    in request order, so no result arrives before the slowest point is
    done. *)

val simulate :
  t -> Protocol.point list -> (Gpusim.Stats.t array, string) result
(** Batch in, statistics out, in request order. *)

val server_stats : t -> (Protocol.server_stats, string) result

val sweep :
  t -> kind:string -> apps:string list -> (string * bool, string) result
(** Run a server-side report sweep; returns the report text and whether
    it found failures. *)

val shutdown : t -> (unit, string) result
