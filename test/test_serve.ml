(* End-to-end tests for the crat daemon: wire framing, a live daemon
   serving concurrent clients in-process, session dedup, server-side
   sweeps, and warm restart from the persistent store. *)

let check = Alcotest.(check bool)

let temp_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir d 0o755;
  d

(* ---------- framing ---------- *)

let test_framing_roundtrip () =
  let path = Filename.temp_file "frame" ".bin" in
  let requests =
    [ Serve.Protocol.Simulate
        [ Serve.Protocol.point "BFS"
        ; Serve.Protocol.point ~regs:(Some 12) ~tlp:(Some 3) ~kepler:true "KMN"
        ]
    ; Serve.Protocol.Sweep { kind = "verify"; apps = [ "BFS" ] }
    ; Serve.Protocol.Stats
    ; Serve.Protocol.Shutdown
    ]
  in
  Out_channel.with_open_bin path (fun oc ->
    List.iter (Serve.Protocol.write_request oc) requests);
  In_channel.with_open_bin path (fun ic ->
    List.iter
      (fun expected ->
         check "frame round-trips" true
           (Serve.Protocol.read_request ic = expected))
      requests);
  Sys.remove path

let test_framing_rejects_garbage () =
  let path = Filename.temp_file "frame" ".bin" in
  Out_channel.with_open_bin path (fun oc ->
    (* a plausible length prefix followed by non-marshal bytes *)
    output_binary_int oc 16;
    output_string oc "not a marshalled");
  let rejected =
    In_channel.with_open_bin path (fun ic ->
      match (Serve.Protocol.read_request ic : Serve.Protocol.request) with
      | _ -> false
      | exception Serve.Protocol.Protocol_error _ -> true)
  in
  check "garbage frame rejected" true rejected;
  Sys.remove path

(* A header claiming a huge request, then EOF: rejected from the length
   alone, before a buffer of that size is allocated. *)
let test_framing_caps_requests () =
  let path = Filename.temp_file "frame" ".bin" in
  Out_channel.with_open_bin path (fun oc ->
    output_binary_int oc (200 * 1024 * 1024));
  let before = Gc.allocated_bytes () in
  let rejected =
    In_channel.with_open_bin path (fun ic ->
      match (Serve.Protocol.read_request ic : Serve.Protocol.request) with
      | _ -> false
      | exception Serve.Protocol.Protocol_error _ -> true)
  in
  let allocated = Gc.allocated_bytes () -. before in
  Sys.remove path;
  check "oversized request rejected" true rejected;
  check "nothing allocated for its payload" true (allocated < 1e6)

(* ---------- live daemon ---------- *)

(* Run the daemon on a thread inside the test process; return the
   socket path and a join function. *)
let spawn_daemon ?store_dir ?sweep dir name =
  let socket = Filename.concat dir (name ^ ".sock") in
  let th =
    Thread.create
      (fun () -> Serve.Daemon.run ~socket ?store_dir ?sweep ())
      ()
  in
  (socket, fun () -> Thread.join th)

let with_client socket f =
  match Serve.Client.connect_retry ~socket () with
  | Error e -> Alcotest.fail ("connect failed: " ^ e)
  | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let shutdown_daemon socket join =
  with_client socket (fun c ->
    match Serve.Client.shutdown c with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("shutdown failed: " ^ e));
  join ()

let test_simulate_and_dedup () =
  let dir = temp_dir "serve-e2e" in
  let socket, join = spawn_daemon dir "d" in
  Fun.protect ~finally:(fun () -> ()) @@ fun () ->
  let points =
    [ Serve.Protocol.point "BFS"; Serve.Protocol.point "GAU" ]
  in
  let first =
    with_client socket (fun c ->
      match Serve.Client.simulate c points with
      | Error e -> Alcotest.fail e
      | Ok stats -> stats)
  in
  check "two results" true (Array.length first = 2);
  check "results distinct" true (first.(0) <> first.(1));
  (* a second client asking the same points must be answered from the
     session cache: no new simulations *)
  let second, stats =
    with_client socket (fun c ->
      let s =
        match Serve.Client.simulate c points with
        | Error e -> Alcotest.fail e
        | Ok stats -> stats
      in
      let st =
        match Serve.Client.server_stats c with
        | Error e -> Alcotest.fail e
        | Ok st -> st
      in
      (s, st))
  in
  check "identical answers across clients" true (first = second);
  check "no extra simulations for the repeat" true
    (stats.Serve.Protocol.sim_runs = 2);
  check "all four points counted" true (stats.Serve.Protocol.points = 4);
  (* unknown app: a protocol error, and the connection survives it *)
  with_client socket (fun c ->
    (match Serve.Client.simulate c [ Serve.Protocol.point "NOPE" ] with
     | Ok _ -> Alcotest.fail "unknown app accepted"
     | Error _ -> ());
    match Serve.Client.simulate c [ Serve.Protocol.point "BFS" ] with
    | Ok stats -> check "connection usable after error" true (stats.(0) = first.(0))
    | Error e -> Alcotest.fail ("connection died after bad request: " ^ e));
  shutdown_daemon socket join;
  check "socket removed on shutdown" false (Sys.file_exists socket)

let test_warm_restart_from_store () =
  let dir = temp_dir "serve-warm" in
  let store_dir = Filename.concat dir "store" in
  let points = [ Serve.Protocol.point "BFS" ] in
  let cold =
    let socket, join = spawn_daemon ~store_dir dir "cold" in
    let stats =
      with_client socket (fun c ->
        match Serve.Client.simulate c points with
        | Error e -> Alcotest.fail e
        | Ok s -> s)
    in
    shutdown_daemon socket join;
    stats
  in
  (* fresh daemon, same store: must answer without simulating *)
  let socket, join = spawn_daemon ~store_dir dir "warm" in
  let warm, stats =
    with_client socket (fun c ->
      let s =
        match Serve.Client.simulate c points with
        | Error e -> Alcotest.fail e
        | Ok s -> s
      in
      let st =
        match Serve.Client.server_stats c with
        | Error e -> Alcotest.fail e
        | Ok st -> st
      in
      (s, st))
  in
  check "warm run simulated nothing" true (stats.Serve.Protocol.sim_runs = 0);
  check "warm hit rate 1.0" true (Serve.Protocol.hit_rate stats = 1.0);
  check "warm answer bit-identical to cold" true
    (Marshal.to_string cold [] = Marshal.to_string warm []);
  shutdown_daemon socket join

let simulate_ok socket points =
  with_client socket (fun c ->
    match Serve.Client.simulate c points with
    | Error e -> Alcotest.fail e
    | Ok stats -> stats)

let stats_of socket =
  with_client socket (fun c ->
    match Serve.Client.server_stats c with
    | Error e -> Alcotest.fail e
    | Ok st -> st)

(* Two clients asking for different points of one launch at the same
   time: the launch is recorded once and the other point replays it. *)
let test_concurrent_clients_record_once () =
  let dir = temp_dir "serve-record" in
  let socket, join = spawn_daemon dir "r" in
  let ask tlp =
    Thread.create
      (fun () -> ignore (simulate_ok socket [ Serve.Protocol.point ~tlp:(Some tlp) "KMN" ]))
      ()
  in
  List.iter Thread.join [ ask 1; ask 2 ];
  let stats = stats_of socket in
  Alcotest.(check int) "launch recorded once" 1 stats.Serve.Protocol.trace_records;
  Alcotest.(check int) "other point replayed" 1 stats.Serve.Protocol.trace_replays;
  shutdown_daemon socket join

(* A client that sends a ladder and hangs up at once must not strand the
   points it claimed: a second client asking for them gets every answer. *)
let test_vanished_client () =
  let dir = temp_dir "serve-vanish" in
  let socket, join = spawn_daemon dir "v" in
  let ladder =
    List.map (fun tlp -> Serve.Protocol.point ~tlp:(Some tlp) "KMN") [ 1; 2; 3; 4 ]
  in
  with_client socket ignore;  (* the daemon is up *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  Serve.Protocol.write_request oc (Serve.Protocol.Simulate ladder);
  Unix.close fd;
  let answers = simulate_ok socket ladder in
  check "every point answered" true (Array.length answers = List.length ladder);
  check "answers are the ladder's" true (answers = simulate_ok socket ladder);
  shutdown_daemon socket join

(* A point the allocator rejects (3 registers) or that is out of range
   gets an [Error] frame; the same connection then serves a valid point. *)
let test_unresolvable_point () =
  let dir = temp_dir "serve-unresolvable" in
  let socket, join = spawn_daemon dir "u" in
  with_client socket (fun c ->
    List.iter
      (fun (what, p) ->
         match Serve.Client.simulate c [ p ] with
         | Ok _ -> Alcotest.failf "%s accepted" what
         | Error _ -> ())
      [ ("regs 3", Serve.Protocol.point ~regs:(Some 3) "GAU")
      ; ("regs 0", Serve.Protocol.point ~regs:(Some 0) "GAU")
      ; ("tlp 0", Serve.Protocol.point ~tlp:(Some 0) "GAU")
      ];
    match Serve.Client.simulate c [ Serve.Protocol.point "GAU" ] with
    | Ok stats -> check "valid point served after errors" true (Array.length stats = 1)
    | Error e -> Alcotest.fail ("connection died after an unresolvable point: " ^ e));
  shutdown_daemon socket join

let sweep_ok c ~kind ~apps =
  match Serve.Client.sweep c ~kind ~apps with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* a stub sweep driver standing in for the CLI's Sweep.serve_sweep (bin
   modules are not linkable from the test tree): [verify] prefixes the
   app list with [tag] and counts its runs *)
let stub_sweep ?(calls = ref 0) tag ~kind ~apps =
  match kind with
  | "verify" ->
    incr calls;
    Some (Printf.sprintf "%s: %s" tag (String.concat "," apps), false)
  | _ -> None

let test_server_side_sweep () =
  let dir = temp_dir "serve-sweep" in
  let calls = ref 0 in
  let store_dir = Filename.concat dir "store" in
  let socket, join =
    spawn_daemon ~store_dir ~sweep:(stub_sweep ~calls "verify ok") dir "s"
  in
  with_client socket (fun c ->
    let text, failed = sweep_ok c ~kind:"verify" ~apps:[ "BFS" ] in
    check "sweep text delivered" true (text = "verify ok: BFS");
    check "sweep passed" false failed;
    (* sweeps are never cached: the driver runs again, with the same
       answer *)
    let again, _ = sweep_ok c ~kind:"verify" ~apps:[ "BFS" ] in
    check "repeat sweep identical" true (again = text);
    Alcotest.(check int) "sweep driver ran per request" 2 !calls;
    match Serve.Client.sweep c ~kind:"bogus" ~apps:[] with
    | Ok _ -> Alcotest.fail "bogus sweep kind accepted"
    | Error _ -> ());
  shutdown_daemon socket join

(* A daemon restarted on the same store with a changed sweep driver (a
   checker fixed between releases) must answer with the new driver's
   text, not a report the old one left behind. *)
let test_sweep_after_driver_change () =
  let dir = temp_dir "serve-sweep-change" in
  let store_dir = Filename.concat dir "store" in
  let sweep_once tag name =
    let socket, join = spawn_daemon ~store_dir ~sweep:(stub_sweep tag) dir name in
    let text, _ =
      with_client socket (fun c -> sweep_ok c ~kind:"verify" ~apps:[ "BFS" ])
    in
    shutdown_daemon socket join;
    text
  in
  Alcotest.(check string) "old driver's text" "old: BFS" (sweep_once "old" "a");
  Alcotest.(check string) "restarted daemon answers the new text" "new: BFS"
    (sweep_once "new" "b")

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [ ( "framing"
      , [ Alcotest.test_case "round-trip" `Quick test_framing_roundtrip
        ; Alcotest.test_case "garbage rejected" `Quick
            test_framing_rejects_garbage
        ; Alcotest.test_case "oversized request rejected" `Quick
            test_framing_caps_requests
        ] )
    ; ( "daemon"
      , [ Alcotest.test_case "simulate + session dedup" `Slow
            test_simulate_and_dedup
        ; Alcotest.test_case "warm restart from store" `Slow
            test_warm_restart_from_store
        ; Alcotest.test_case "server-side sweep" `Quick test_server_side_sweep
        ; Alcotest.test_case "sweep answers a changed driver's text" `Quick
            test_sweep_after_driver_change
        ; Alcotest.test_case "concurrent clients record a launch once" `Slow
            test_concurrent_clients_record_once
        ; Alcotest.test_case "vanished client strands no claim" `Slow
            test_vanished_client
        ; Alcotest.test_case "unresolvable point answered with Error" `Quick
            test_unresolvable_point
        ] )
    ]
