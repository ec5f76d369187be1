(* The crat daemon: a long-lived server in front of [Crat.Engine] —
   framing plus dispatch.

   Concurrency model: the listener accepts on the main thread and gives
   each connection a systhread (cheap, released around blocking IO). A
   [Simulate] request resolves its points and runs them as one engine
   batch on the connection's own thread; compute parallelism comes from
   the engine's [--jobs] fan-out, as in every other subcommand.

   Cross-client dedup is the engine's claim-or-wait ([Crat.Memo]): a
   point another connection is computing is waited for instead of
   recomputed — the [dedup_hits] counter of the stats endpoint — and a
   launch another connection is recording is replayed once its trace is
   published. Combined with the engine's persistent store, each launch
   is recorded once ever: first contact records the trace to disk, every
   later point of the same launch — same client, another client, or
   another daemon process reusing the store directory — replays or reads
   statistics back.

   A point without a TLP runs at its MaxTLP, which reads only the
   Section 4.1 occupancy facts ([Crat.Resource.usage]: registers per
   thread, block size, shared bytes per block); the protocol serves the
   PTX backend only, so no point pays a resource analysis. *)

type t =
  { engine : Crat.Engine.t
  ; store : Store.t option
  ; sweep : (kind:string -> apps:string list -> (string * bool) option) option
  ; lock : Mutex.t
  ; mutable listen_fd : Unix.file_descr option
  ; socket_path : string
  ; started : float
  ; mutable stop : bool
  ; mutable handlers : int
  ; mutable connections : int
  ; mutable requests : int
  ; mutable points : int
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---------- point resolution ---------- *)

let config_of_kepler kepler =
  if kepler then Gpusim.Config.kepler else Gpusim.Config.fermi

exception Bad_request of string

let find_app abbr =
  try Workloads.Suite.find abbr
  with Not_found -> raise (Bad_request (Printf.sprintf "unknown app %S" abbr))

(* (launch, config, tlp) of one protocol point. Allocation goes through
   the engine's memo; the launch shares the app's input image, whose
   digest is cached. *)
let resolve t (p : Protocol.point) =
  let app = find_app p.Protocol.abbr in
  let regs =
    Option.value ~default:app.Workloads.App.default_regs p.Protocol.regs
  in
  if regs < 1 then raise (Bad_request (Printf.sprintf "regs %d < 1" regs));
  (match p.Protocol.tlp with
   | Some tlp when tlp < 1 ->
     raise (Bad_request (Printf.sprintf "tlp %d < 1" tlp))
   | _ -> ());
  let cfg = config_of_kepler p.Protocol.kepler in
  let a = Crat.Engine.allocate t.engine app ~reg_limit:regs in
  let launch =
    Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel
      ~input:(Workloads.App.default_input app) ()
  in
  let tlp =
    match p.Protocol.tlp with
    | Some tlp -> tlp
    | None -> max 1 (Gpusim.Occupancy.max_tlp cfg (Crat.Resource.usage app ~regs))
  in
  (launch, cfg, tlp)

(* ---------- request handlers ---------- *)

(* A point that cannot be resolved (unknown app, a register limit the
   allocator rejects) or simulated is answered with an [Error] frame; the
   connection stays open for the next request. *)
let handle_simulate t oc pts =
  locked t (fun () -> t.points <- t.points + List.length pts);
  match Crat.Engine.simulate_batch t.engine (List.map (resolve t) pts) with
  | stats ->
    List.iteri
      (fun i st ->
         Protocol.write_response oc (Protocol.Result { index = i; stats = st }))
      stats;
    Protocol.write_response oc Protocol.Done
  | exception Bad_request msg -> Protocol.write_response oc (Protocol.Error msg)
  | exception e -> Protocol.write_response oc (Protocol.Error (Printexc.to_string e))

(* Server-side sweeps reuse the CLI's sweep driver (injected by the
   binary hosting the daemon) and run uncached on the connection's
   thread, like [Simulate]: no key could name the checkers' code, so a
   cached report could outlive the code that wrote it. *)
let handle_sweep t oc ~kind ~apps =
  Protocol.write_response oc
    (match t.sweep with
     | None -> Protocol.Error "this daemon has no sweep driver"
     | Some sweep ->
       (match sweep ~kind ~apps with
        | Some (text, failed) -> Protocol.Sweep_result { text; failed }
        | None -> Protocol.Error (Printf.sprintf "unknown sweep kind %S" kind)
        | exception e -> Protocol.Error (Printexc.to_string e)))

let server_stats t =
  let r = Crat.Engine.report t.engine in
  let se, sb, sbud, sh, sm, sev =
    match t.store with
    | None -> (0, 0, 0, 0, 0, 0)
    | Some d ->
      let s = Store.stats d in
      ( s.Store.entries, s.Store.bytes, s.Store.budget, s.Store.hits
      , s.Store.misses, s.Store.evictions )
  in
  locked t (fun () ->
    { Protocol.uptime_s = Unix.gettimeofday () -. t.started
    ; connections = t.connections
    ; requests = t.requests
    ; points = t.points
    ; dedup_hits = r.Crat.Engine.dedup_hits
    ; sim_runs = r.Crat.Engine.sim_runs
    ; sim_hits = r.Crat.Engine.sim_hits
    ; trace_records = r.Crat.Engine.trace_records
    ; trace_replays = r.Crat.Engine.trace_replays
    ; alloc_runs = r.Crat.Engine.alloc_runs
    ; alloc_hits = r.Crat.Engine.alloc_hits
    ; store_entries = se
    ; store_bytes = sb
    ; store_budget = sbud
    ; store_hits = sh
    ; store_misses = sm
    ; store_evictions = sev
    })

let initiate_stop t =
  locked t (fun () -> t.stop <- true);
  (* closing a listening socket does not wake a thread blocked in
     accept(2) on Linux — poke it with a throwaway connection instead *)
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | fd ->
    (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path)
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let handle t oc = function
  | Protocol.Simulate pts -> handle_simulate t oc pts
  | Protocol.Sweep { kind; apps } -> handle_sweep t oc ~kind ~apps
  | Protocol.Stats ->
    Protocol.write_response oc (Protocol.Stats_result (server_stats t))
  | Protocol.Shutdown ->
    Protocol.write_response oc Protocol.Done;
    initiate_stop t

let handle_conn t fd =
  locked t (fun () -> t.handlers <- t.handlers + 1);
  let finish () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    locked t (fun () -> t.handlers <- t.handlers - 1)
  in
  Fun.protect ~finally:finish (fun () ->
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    set_binary_mode_in ic true;
    set_binary_mode_out oc true;
    let rec loop () =
      match Protocol.read_request ic with
      | req ->
        locked t (fun () -> t.requests <- t.requests + 1);
        handle t oc req;
        (match req with Protocol.Shutdown -> () | _ -> loop ())
      | exception (End_of_file | Sys_error _) -> ()
      | exception Protocol.Protocol_error _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    (* a half-broken peer must never take the daemon down *)
    try loop () with _ -> ())

(* ---------- lifecycle ---------- *)

let run ?(socket = Protocol.default_socket) ?store_dir ?budget ?(jobs = 1)
    ?(replay = true) ?sweep () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* Never steal the endpoint of a live daemon: probe an existing socket
     file with a connect, and only sweep it away if nobody answers (a
     stale socket left by a killed daemon). Two daemons on one path
     would also end up opening the same store directory, which Store
     explicitly does not coordinate across processes. The probe runs
     before the store opens so a refused start leaves it untouched. *)
  if Sys.file_exists socket then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect probe (Unix.ADDR_UNIX socket) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if alive then
      failwith
        (Printf.sprintf "crat serve: a daemon is already listening on %s"
           socket);
    Sys.remove socket
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  let store = Option.map (fun d -> Store.open_ ?budget d) store_dir in
  let engine = Crat.Engine.create ~jobs ~replay ?store () in
  let t =
    { engine
    ; store
    ; sweep
    ; lock = Mutex.create ()
    ; listen_fd = Some fd
    ; socket_path = socket
    ; started = Unix.gettimeofday ()
    ; stop = false
    ; handlers = 0
    ; connections = 0
    ; requests = 0
    ; points = 0
    }
  in
  let rec accept_loop () =
    if not (locked t (fun () -> t.stop)) then
      match Unix.accept fd with
      | cfd, _ ->
        if locked t (fun () -> t.stop) then
          (try Unix.close cfd with Unix.Unix_error _ -> ())
        else begin
          locked t (fun () -> t.connections <- t.connections + 1);
          ignore (Thread.create (handle_conn t) cfd);
          accept_loop ()
        end
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (* drain: let in-flight connections finish before tearing down *)
  let rec drain n =
    if n > 0 && locked t (fun () -> t.handlers > 0) then begin
      Thread.delay 0.05;
      drain (n - 1)
    end
  in
  drain 200;
  (match t.listen_fd with
   | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  (try Sys.remove t.socket_path with Sys_error _ -> ());
  Option.iter Store.close store
