(* serve-cold and serve-warm: the crat daemon ([Serve.Daemon.run
   ~jobs:1], in a child process running this executable) under two
   client threads of this process, over a fixed universe of points.

   serve-cold, per pass: a fresh daemon on an empty store; each client
   sends the whole universe as one streamed batch in its own seeded
   order. It is the write side of the store: record once, dedup across
   clients. serve-warm: set-up records the universe into a store; each
   cycle starts a fresh daemon on it and the clients send seeded halves
   of the universe one point per request (closed loop). It is the read
   side of the store plus per-request daemon overhead. *)

module Protocol = Serve.Protocol
module Client = Serve.Client

let fermi = Gpusim.Config.fermi
let kepler = Gpusim.Config.kepler

(* The eleven resource-insensitive apps: every launch is cheap to
   record (a cold pass takes a few seconds on a 2-core host), and each
   has the largest TLP ladder (MaxTLP 8), so most points replay. *)
let apps = Workloads.Suite.insensitive

(* Per app: the Fermi OptTLP ladder (TLP 1..MaxTLP at the default
   registers) plus the Kepler default point. *)
let universe () =
  List.concat_map
    (fun (app : Workloads.App.t) ->
      let r = Crat.Resource.analyze fermi app in
      List.init (max 1 r.Crat.Resource.max_tlp) (fun i ->
        Protocol.point ~tlp:(Some (i + 1)) app.Workloads.App.abbr)
      @ [ Protocol.point ~kepler:true app.Workloads.App.abbr ])
    apps

type answers = (Protocol.point * Gpusim.Stats.t) list

let fingerprint (a : answers) = Run.fingerprint (List.sort compare a)

(* ---------- files, daemon and clients ---------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Scratch space inside the working directory (relative, so socket
   paths stay short), removed when [f] returns or raises. *)
let with_scratch f =
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

type daemon =
  { pid : int
  ; socket : string
  }

let start_daemon ~dir ~store =
  let socket = Filename.concat dir "d.sock" in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--daemon"; socket; store |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  match Client.connect_retry ~socket () with
  | Ok c ->
    Client.close c;
    { pid; socket }
  | Error e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith ("daemon did not come up: " ^ e)

let with_client ~socket f =
  match Client.connect ~socket () with
  | Error e -> Error e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* The daemon's counters and peak memory, then an orderly shutdown. A
   daemon that died during the pass, or does not answer or exit cleanly,
   gives an error instead, which the pass counts as a failed operation. *)
let stop_daemon d =
  let stats = with_client ~socket:d.socket Client.server_stats in
  (* a dead daemon's /proc entry is gone, or has no VmHWM *)
  let rss =
    try Ok (Run.peak_rss_mb (string_of_int d.pid)) with Failure e | Sys_error e -> Error e
  in
  (match with_client ~socket:d.socket Client.shutdown with
   | Ok () -> ()
   | Error _ -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  match (snd (Unix.waitpid [] d.pid), stats, rss) with
  | Unix.WEXITED 0, Ok s, Ok r -> Ok (s, r)
  | Unix.WEXITED 0, Error e, _ -> Error ("no stats from the daemon: " ^ e)
  | Unix.WEXITED 0, _, Error e -> Error ("no peak memory of the daemon: " ^ e)
  | _ -> Error "the daemon died or exited abnormally"

let with_daemon ~dir ~store f =
  let d = start_daemon ~dir ~store in
  match f d with
  | r -> (r, stop_daemon d)
  | exception e ->
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    raise e

(* Run one client per element of [work] on its own thread; each returns
   its result or an error. *)
let clients work client =
  let out = Array.make (List.length work) (Error "client did not finish") in
  let threads =
    List.mapi
      (fun i w ->
        Thread.create
          (fun () ->
            out.(i) <- (try client w with e -> Error (Printexc.to_string e)))
          ())
      work
  in
  List.iter Thread.join threads;
  Array.to_list out

(* One streamed batch. *)
let stream ~socket points =
  with_client ~socket (fun c ->
    let got = Array.make (List.length points) None in
    match Client.simulate_iter c points ~f:(fun i st -> got.(i) <- Some st) with
    | Error e -> Error e
    | Ok _ ->
      if Array.exists Option.is_none got then Error "a point went unanswered"
      else Ok (List.mapi (fun i p -> (p, Option.get got.(i))) points))

(* One point per request, each waiting for its answer; also returns each
   request's latency in ms. *)
let requests ~socket points =
  with_client ~socket (fun c ->
    let rec go acc lat = function
      | [] -> Ok (List.rev acc, List.rev lat)
      | p :: rest ->
        let r, dt = Span.timed (fun () -> Client.simulate c [ p ]) in
        (match r with
         | Ok [| st |] -> go ((p, st) :: acc) ((dt *. 1000.) :: lat) rest
         | Ok _ -> Error "wrong answer count"
         | Error e -> Error e)
    in
    go [] [] points)

type 'r pass =
  { results : ('r, string) result list  (** per client *)
  ; wall : float
  ; daemon : (Protocol.server_stats * float, string) result
        (** the daemon's counters and peak memory in MB *)
  }

(* The daemons of [passes] that ended cleanly. *)
let daemons passes = List.filter_map (fun p -> Result.to_option p.daemon) passes

(* A median over the daemons that ended cleanly; 0 when none did, and the
   run has failed. *)
let daemon_median f = function
  | [] -> 0.
  | ds -> Run.median_of f ds

let client_orders ~seed universe =
  List.init 2 (fun cl -> Run.shuffle ~seed:((2 * seed) + cl) universe)

(* Two halves with the same work, so the cycle's wall does not depend on
   how the seed happened to split it: app j's Kepler point (the one that
   costs a resource analysis) goes to client (j + seed) mod 2, its ladder
   points are dealt alternately in seeded order, and each half is then
   sent in its own seeded order. *)
let halves ~seed universe =
  let halves = [| []; [] |] in
  List.iteri
    (fun j (app : Workloads.App.t) ->
      let mine = List.filter (fun p -> p.Protocol.abbr = app.Workloads.App.abbr) universe in
      let kepler, ladder = List.partition (fun p -> p.Protocol.kepler) mine in
      let deal h p = halves.(h) <- p :: halves.(h) in
      List.iter (deal ((j + seed) land 1)) kepler;
      List.iteri (fun i p -> deal (i mod 2) p) (Run.shuffle ~seed:(seed + j) ladder))
    apps;
  List.init 2 (fun h -> Run.shuffle ~seed:(seed + h) halves.(h))

let cold_pass ~dir ~seed ~n universe =
  let store = Filename.concat dir (Printf.sprintf "cold%d" n) in
  let (results, wall), daemon =
    with_daemon ~dir ~store (fun d ->
      Span.timed (fun () -> clients (client_orders ~seed universe) (stream ~socket:d.socket)))
  in
  rm_rf store;
  { results; wall; daemon }

let warm_cycle ~dir ~store ~seed universe =
  let (results, wall), daemon =
    with_daemon ~dir ~store (fun d ->
      Span.timed (fun () -> clients (halves ~seed universe) (requests ~socket:d.socket)))
  in
  { results; wall; daemon }

(* A store holding every answer of the universe, recorded by a daemon. *)
let record_store ~dir universe =
  let store = Filename.concat dir "warm" in
  match with_daemon ~dir ~store (fun d -> stream ~socket:d.socket universe) with
  | Ok _, Ok _ -> store
  | Error e, _ | _, Error e -> failwith ("recording the warm store failed: " ^ e)

(* Set-up. serve-cold: the universe (a resource analysis per app).
   serve-warm: the universe and a store recorded with it. *)
let setup_cold ~seed:_ = ignore (universe ())
let setup_warm ~seed:_ = with_scratch (fun dir -> ignore (record_store ~dir (universe ())))

(* ---------- in-process replicas of the daemon's work (traced) ---------- *)

(* What [Serve.Daemon]'s resolve does for a point: one allocation and
   launch per (app, regs), the occupancy TLP per (app, regs, config) when
   the point names none. [allocate] and [launch] are the replica's. *)
let resolver ~allocate ~launch =
  let launches = Hashtbl.create 16 and tlps = Hashtbl.create 16 in
  fun (p : Protocol.point) ->
    let app = Workloads.Suite.find p.Protocol.abbr in
    let regs = Option.value ~default:app.Workloads.App.default_regs p.Protocol.regs in
    let cfg = if p.Protocol.kepler then kepler else fermi in
    let l =
      match Hashtbl.find_opt launches (p.Protocol.abbr, regs) with
      | Some l -> l
      | None ->
        let a = allocate app ~reg_limit:regs in
        let l = launch app a in
        Hashtbl.replace launches (p.Protocol.abbr, regs) l;
        l
    in
    let tlp =
      match p.Protocol.tlp with
      | Some t -> t
      | None ->
        let key = (p.Protocol.abbr, regs, p.Protocol.kepler) in
        (match Hashtbl.find_opt tlps key with
         | Some t -> t
         | None ->
           let r = Mirror.resource cfg app in
           let t = max 1 (Gpusim.Occupancy.max_tlp cfg (Crat.Resource.usage_at r ~regs)) in
           Hashtbl.replace tlps key t;
           t)
    in
    (l, cfg, tlp)

let open_store dir = Span.span "store.open" (fun () -> Store.open_ dir)

(* serve-cold: one client's batch on an empty store, serially. *)
let cold_replica ~dir ~seed universe =
  let store_dir = Filename.concat dir "replica" in
  rm_rf store_dir;
  let store = open_store store_dir in
  let m = Mirror.create ~store () in
  let points = List.hd (client_orders ~seed universe) in
  let resolve =
    resolver
      ~allocate:(fun app ~reg_limit -> Mirror.allocate m app ~reg_limit)
      ~launch:(fun app a ->
        Mirror.launch app ~kernel:a.Regalloc.Allocator.kernel
          ~input:(Workloads.App.default_input app))
  in
  let triples = List.map resolve points in
  List.iter (fun (l, cfg, tlp) -> ignore (Mirror.sim_key m l cfg ~tlp)) triples;
  let stats = Mirror.simulate_batch m triples in
  Store.close store;
  rm_rf store_dir;
  (List.combine points stats, m)

(* serve-warm: every request of a cycle against the recorded store. *)
let warm_replica ~store:store_dir ~seed universe =
  let store = open_store store_dir in
  let engine = Crat.Engine.create ~jobs:1 ~store () in
  let resolve =
    resolver
      ~allocate:(fun app ~reg_limit ->
        Span.span "core.engine_allocate" (fun () ->
          Crat.Engine.allocate engine app ~reg_limit))
      ~launch:(fun app a ->
        Mirror.launch app ~kernel:a.Regalloc.Allocator.kernel
          ~input:(Workloads.App.default_input app))
  in
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let answers =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        close_out_noerr oc)
      (fun () ->
        List.map
          (fun p ->
            let l, cfg, tlp = resolve p in
            let key =
              Span.span "core.sim_key" (fun () -> Crat.Engine.sim_key engine l cfg ~tlp)
            in
            let st : Gpusim.Stats.t =
              match
                Span.span "store.get"
                  ~work:(function Some s -> float_of_int (String.length s) | None -> 0.)
                  (fun () -> Store.get store ~kind:"stats" ~key)
              with
              | Some s -> Marshal.from_string s 0
              | None -> failwith "warm store is missing a point"
            in
            (* the request and its two response frames, over a pipe *)
            Span.span "serve.frame" (fun () ->
              Protocol.write_request oc (Protocol.Simulate [ p ]);
              ignore (Protocol.read_request ic);
              Protocol.write_response oc (Protocol.Result { index = 0; stats = st });
              ignore (Protocol.read_response ic);
              Protocol.write_response oc Protocol.Done;
              ignore (Protocol.read_response ic));
            (p, st))
          (List.concat (halves ~seed universe)))
  in
  let report = Crat.Engine.report engine in
  Store.close store;
  (answers, report)

(* ---------- metrics ---------- *)

let daemon_metrics passes =
  let ds = daemons passes in
  let med f = daemon_median (fun (s, _) -> float_of_int (f s)) ds in
  [ ("daemon.dedup_hits", med (fun s -> s.Protocol.dedup_hits))
  ; ("daemon.sim_runs", med (fun s -> s.Protocol.sim_runs))
  ; ("daemon.trace_records", med (fun s -> s.Protocol.trace_records))
  ; ("daemon.trace_replays", med (fun s -> s.Protocol.trace_replays))
  ; ("daemon.hit_rate", daemon_median (fun (s, _) -> Protocol.hit_rate s) ds)
  ; ("store.bytes", med (fun s -> s.Protocol.store_bytes))
  ; ("store.entries", med (fun s -> s.Protocol.store_entries))
  ; ("store.evictions", med (fun s -> s.Protocol.store_evictions))
  ]

(* Every client answered every point of its share, with the committed
   answers ([answers] takes them from a client's result), and the daemon
   ended cleanly; each failed client and a daemon that did not end
   cleanly is one failed check. Returns the number of points answered. *)
let check_pass c ~what ~want ~answers (p : _ pass) =
  let ok = List.filter_map (function Ok r -> Some (answers r) | Error _ -> None) p.results in
  List.iter
    (function
      | Error e -> Run.check c false "%s: client error: %s" what e
      | Ok _ -> ())
    p.results;
  (match p.daemon with
   | Error e -> Run.check c false "%s: %s" what e
   | Ok _ -> ());
  want c ok;
  List.fold_left (fun a ans -> a + List.length ans) 0 ok

let cold_want ~universe c answers =
  List.iter
    (fun a ->
      let fp = fingerprint a in
      Run.check c (fp = Expected.serve_universe && List.length a = List.length universe)
        "serve-cold: a client's answers %s = committed %s" fp Expected.serve_universe)
    answers

let warm_want c answers =
  let fp = fingerprint (List.concat answers) in
  Run.check c (fp = Expected.serve_universe) "serve-warm: answers %s = committed %s" fp
    Expected.serve_universe

let run_cold ~seed ~seconds ~trace : Run.outcome =
  let c = Run.checks () in
  let universe = universe () in
  with_scratch (fun dir ->
    if not trace then begin
      let passes = Run.repeat_for ~seconds (fun n -> cold_pass ~dir ~seed ~n universe) in
      let answered =
        List.fold_left
          (fun a p ->
            a + check_pass c ~what:"serve-cold" ~want:(cold_want ~universe) ~answers:Fun.id p)
          0 passes
      in
      List.iter
        (fun (s, _) ->
          Run.check c (s.Protocol.trace_records = List.length apps)
            "serve-cold: each launch recorded once (%d records)" s.Protocol.trace_records)
        (daemons passes);
      { Run.attempted = answered + c.n
      ; failed = c.bad
      ; metrics =
          Run.end_to_end
            ~walls:(List.map (fun p -> p.wall) passes)
            ~points:(List.map (fun _ -> 2 * List.length universe) passes)
            ~peak_rss_mb:(daemon_median snd (daemons passes))
      ; notes = List.rev c.lines
      }
    end
    else begin
      let rounds =
        Run.repeat_for ~seconds (fun n ->
          let p = cold_pass ~dir ~seed ~n universe in
          let (answers, m), snap, wall = Run.traced (fun () -> cold_replica ~dir ~seed universe) in
          (p, answers, m, snap, wall))
      in
      List.iter
        (fun (p, answers, _, _, _) ->
          ignore (check_pass c ~what:"serve-cold" ~want:(cold_want ~universe) ~answers:Fun.id p);
          cold_want ~universe c [ answers ])
        rounds;
      let _, _, m, _, _ = List.hd rounds in
      let snaps = List.map (fun (_, _, _, s, _) -> s) rounds in
      { Run.attempted = c.n
      ; failed = c.bad
      ; metrics =
          Run.layer_metrics snaps
          @ [ ("gpusim.trace_events", float_of_int m.Mirror.trace_events) ]
          @ daemon_metrics (List.map (fun (p, _, _, _, _) -> p) rounds)
          @ Run.trace_health ~snaps
              ~traced_walls:(List.map (fun (_, _, _, _, w) -> w) rounds)
              ~untraced_walls:(List.map (fun (p, _, _, _, _) -> p.wall) rounds)
      ; notes = List.rev c.lines
      }
    end)

let run_warm ~seed ~seconds ~trace : Run.outcome =
  let c = Run.checks () in
  with_scratch (fun dir ->
    let universe = universe () in
    let store = record_store ~dir universe in
    let cycle () = warm_cycle ~dir ~store ~seed universe in
    let zero_sim what (p : _ pass) =
      match p.daemon with
      | Ok (s, _) ->
        Run.check c
          (s.Protocol.sim_runs = 0 && s.Protocol.trace_records = 0)
          "%s: answered with no simulation" what
      | Error _ -> () (* failed in [check_pass] *)
    in
    if not trace then begin
      let cycles = Run.repeat_for ~seconds (fun _ -> cycle ()) in
      let answered =
        List.fold_left
          (fun a p ->
            zero_sim "serve-warm" p;
            a + check_pass c ~what:"serve-warm" ~want:warm_want ~answers:fst p)
          0 cycles
      in
      { Run.attempted = answered + c.n
      ; failed = c.bad
      ; metrics =
          Run.end_to_end
            ~walls:(List.map (fun p -> p.wall) cycles)
            ~points:(List.map (fun _ -> List.length universe) cycles)
            ~peak_rss_mb:(daemon_median snd (daemons cycles))
      ; notes = List.rev c.lines
      }
    end
    else begin
      let rounds =
        Run.repeat_for ~seconds (fun _ ->
          let p = cycle () in
          let (answers, report), snap, wall =
            Run.traced (fun () -> warm_replica ~store ~seed universe)
          in
          (p, answers, report, snap, wall))
      in
      List.iter
        (fun (p, answers, _, _, _) ->
          zero_sim "serve-warm" p;
          ignore (check_pass c ~what:"serve-warm" ~want:warm_want ~answers:fst p);
          warm_want c [ answers ])
        rounds;
      let _, _, report, _, _ = List.hd rounds in
      let snaps = List.map (fun (_, _, _, s, _) -> s) rounds in
      let request_lat p =
        List.concat_map (function Ok (_, l) -> l | Error _ -> []) p.results
      in
      let pooled = List.concat_map (fun (p, _, _, _, _) -> request_lat p) rounds in
      (match Perfkit.Stat.highest_percentile (List.length pooled) with
       | Some p when p >= 99. -> ()
       | _ ->
         Run.note c "serve-warm: %d requests leave fewer than ten beyond p99"
           (List.length pooled));
      let request_s p = List.fold_left ( +. ) 0. (request_lat p) /. 1000. in
      let pct q = if pooled = [] then 0. else Perfkit.Stat.percentile q pooled in
      { Run.attempted = c.n
      ; failed = c.bad
      ; metrics =
          Run.layer_metrics snaps
          @ Run.engine_metrics c ~what:"serve-warm" report
          @ daemon_metrics (List.map (fun (p, _, _, _, _) -> p) rounds)
          @ [ ("serve.request.s", Run.median_of (fun (p, _, _, _, _) -> request_s p) rounds)
            ; ( "serve.request.calls"
              , Run.median_of (fun (p, _, _, _, _) -> float_of_int (List.length (request_lat p))) rounds )
            ; ("serve.request.p50_ms", pct 50.)
            ; ("serve.request.p90_ms", pct 90.)
            ; ("serve.request.p99_ms", pct 99.)
            ; ("serve.request.max_ms", pct 100.)
            ; ( "serve.residual.s"
              , Run.median_of (fun (p, _, _, _, w) -> request_s p -. w) rounds )
            ]
          @ Run.trace_health ~snaps
              ~traced_walls:(List.map (fun (_, _, _, _, w) -> w) rounds)
              ~untraced_walls:(List.map (fun (p, _, _, _, _) -> p.wall) rounds)
      ; notes = List.rev c.lines
      }
    end)

(* Every app's default point through a daemon, against BENCH_PR10.json. *)
let canary c =
  with_scratch (fun dir ->
    let points = List.map (fun a -> Protocol.point a) Workloads.Suite.abbrs in
    match
      with_daemon ~dir ~store:(Filename.concat dir "canary") (fun d ->
        stream ~socket:d.socket points)
    with
    | Error e, _ | _, Error e -> Run.check c false "default points: %s" e
    | Ok answers, Ok _ ->
      let fp =
        Run.fingerprint
          (List.sort compare (List.map (fun (p, st) -> (p.Protocol.abbr, st)) answers))
      in
      Run.check c (fp = Expected.full_default_points) "default points %s = %s" fp
        Expected.full_default_points)
