(** The crat daemon: a long-lived server exposing a {!Crat.Engine.t}
    (optionally backed by a persistent {!Store.t}) to concurrent clients
    over a Unix-domain socket. Cross-client dedup is the engine's
    claim-or-wait ({!Crat.Memo}). See {!Protocol} for the wire format. *)

exception Bad_request of string
(** Raised internally for malformed requests (e.g. an unknown app
    abbreviation); surfaces to the client as [Protocol.Error]. *)

val run :
     ?socket:string
  -> ?store_dir:string
  -> ?budget:int
  -> ?jobs:int
  -> ?replay:bool
  -> ?sweep:(kind:string -> apps:string list -> (string * bool) option)
  -> unit
  -> unit
(** Serve until a [Shutdown] request arrives, then drain connections,
    remove the socket file and close the store. [socket] defaults to
    {!Protocol.default_socket}; [store_dir] (none by default) opens a
    persistent store with [budget] bytes (see {!Store.default_budget});
    [jobs]/[replay] configure the engine; each request's batch runs on
    its connection's thread and fans across up to [jobs] domains
    (default 1). [sweep] runs server-side
    report sweeps — it returns [(report_text, failed)], or [None] for an
    unknown kind; it runs on the connection's thread for every request,
    and its reports are never cached.
    @raise Failure if another daemon already answers on [socket] (a
    stale socket file left by a killed daemon is swept and reused). *)
