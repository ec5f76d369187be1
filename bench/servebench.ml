(* BENCH_PR10 harness: the crat daemon hammered with the workload suite
   from N forked client processes, cold store vs warm store.

   Four cells, each with its own daemon lifecycle:

     cold_c1  fresh store, 1 client runs the suite (records everything)
     warm_c1  new daemon process on the same store, same client run
     cold_c4  fresh store, 4 concurrent clients each run the full suite
              (rotated app order, so they claim different launches and
              dedup the rest against each other)
     warm_c4  new daemon process on that store, 4 concurrent clients

   Every client fingerprints the Stats.t it received (sorted by app, so
   rotation does not matter): all fingerprints across all cells must be
   bit-identical, proving store answers equal cold simulation. Warm
   cells must answer >= 90% of points without functional execution.
   cold_c4 vs cold_c1 wall-clock is the N-client scaling headline; it is
   asserted only on hosts with a core per client, and the core count is
   recorded in the JSON.

     dune exec bench/servebench.exe                    # full suite
     dune exec bench/servebench.exe -- BENCH_PR10.json
     dune exec bench/servebench.exe -- --smoke BENCH_PR10.json  # CI subset
*)

let smoke_apps = [ "BFS"; "KMN"; "GAU"; "LUD"; "PATH"; "ESP" ]

let rotate n l =
  let len = List.length l in
  if len = 0 then []
  else begin
    let n = n mod len in
    let front = List.filteri (fun i _ -> i >= n) l in
    let back = List.filteri (fun i _ -> i < n) l in
    front @ back
  end

(* ---------- one client process ---------- *)

(* Runs the whole point list through the daemon and reports
   (wall_s, fingerprint): the fingerprint digests every (abbr, Stats.t)
   pair in app order, so it is invariant under rotation and completion
   order. *)
let client_run ~socket abbrs =
  match Serve.Client.connect_retry ~socket () with
  | Error e -> Error e
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let points = List.map (fun a -> Serve.Protocol.point a) abbrs in
    let t0 = Unix.gettimeofday () in
    (match Serve.Client.simulate c points with
     | Error e -> Error e
     | Ok stats ->
       let wall = Unix.gettimeofday () -. t0 in
       let pairs =
         List.sort compare
           (List.mapi (fun i a -> (a, stats.(i))) abbrs)
       in
       let fp = Digest.to_hex (Digest.string (Marshal.to_string pairs [])) in
       Ok (wall, fp))

(* ---------- daemon + client process plumbing ---------- *)

let start_daemon ~socket ~store =
  match Unix.fork () with
  | 0 ->
    (try Serve.Daemon.run ~socket ~store_dir:store ~jobs:1 () with _ -> ());
    Stdlib.exit 0
  | pid -> pid

let stop_daemon ~socket pid =
  (match Serve.Client.connect_retry ~socket ~attempts:20 () with
   | Ok c ->
     ignore (Serve.Client.shutdown c);
     Serve.Client.close c
   | Error _ -> (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] pid)

(* Fork [clients] processes; each runs the suite with a rotated app
   order and leaves "wall fingerprint" in its own result file. *)
let run_clients ~socket ~dir ~clients abbrs =
  let result_file i = Filename.concat dir (Printf.sprintf "client%d.out" i) in
  let t0 = Unix.gettimeofday () in
  let pids =
    List.init clients (fun i ->
      match Unix.fork () with
      | 0 ->
        let rotated = rotate (i * (List.length abbrs / max 1 clients)) abbrs in
        let status =
          match client_run ~socket rotated with
          | Ok (wall, fp) ->
            Out_channel.with_open_text (result_file i) (fun oc ->
              Printf.fprintf oc "%.6f %s\n" wall fp);
            0
          | Error e ->
            prerr_endline ("client error: " ^ e);
            1
        in
        Stdlib.exit status
      | pid -> pid)
  in
  let ok =
    List.for_all
      (fun pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
      pids
  in
  let wall = Unix.gettimeofday () -. t0 in
  if not ok then failwith "a client process failed";
  let per_client =
    List.init clients (fun i ->
      In_channel.with_open_text (result_file i) (fun ic ->
        Scanf.sscanf (Option.get (In_channel.input_line ic)) "%f %s"
          (fun w fp -> (w, fp))))
  in
  (wall, per_client)

(* ---------- cells ---------- *)

type cell =
  { label : string
  ; clients : int
  ; wall_s : float
  ; fingerprints : string list
  ; hit_rate : float
  ; stats : Serve.Protocol.server_stats
  }

let run_cell ~label ~dir ~store ~clients abbrs =
  let socket = Filename.concat dir (label ^ ".sock") in
  let pid = start_daemon ~socket ~store in
  Fun.protect ~finally:(fun () ->
    if
      (try Unix.kill pid 0; true with Unix.Unix_error _ -> false)
    then stop_daemon ~socket pid)
  @@ fun () ->
  (* wait for the daemon before starting the clock *)
  (match Serve.Client.connect_retry ~socket () with
   | Ok c -> Serve.Client.close c
   | Error e -> failwith ("daemon did not come up: " ^ e));
  let wall, per_client = run_clients ~socket ~dir ~clients abbrs in
  let stats =
    match Serve.Client.connect_retry ~socket ~attempts:20 () with
    | Error e -> failwith ("stats connection failed: " ^ e)
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.server_stats c with
       | Ok s -> s
       | Error e -> failwith ("stats request failed: " ^ e))
  in
  stop_daemon ~socket pid;
  let c =
    { label
    ; clients
    ; wall_s = wall
    ; fingerprints = List.map snd per_client
    ; hit_rate = Serve.Protocol.hit_rate stats
    ; stats
    }
  in
  Printf.eprintf "%-8s clients=%d: %.2fs, hit rate %.3f, %d dedup hit(s)\n%!"
    label clients wall c.hit_rate stats.Serve.Protocol.dedup_hits;
  c

let cell_json c =
  let s = c.stats in
  Printf.sprintf
    {|    {"label": "%s", "clients": %d, "wall_s": %.3f, "hit_rate": %.4f,
     "fingerprints": [%s],
     "daemon": {"points": %d, "dedup_hits": %d, "sim_runs": %d, "sim_hits": %d,
                "trace_records": %d, "trace_replays": %d,
                "store_entries": %d, "store_bytes": %d, "store_hits": %d,
                "store_misses": %d, "store_evictions": %d}}|}
    c.label c.clients c.wall_s c.hit_rate
    (String.concat ", "
       (List.map (fun f -> Printf.sprintf "\"%s\"" f) c.fingerprints))
    s.Serve.Protocol.points s.Serve.Protocol.dedup_hits
    s.Serve.Protocol.sim_runs s.Serve.Protocol.sim_hits
    s.Serve.Protocol.trace_records s.Serve.Protocol.trace_replays
    s.Serve.Protocol.store_entries s.Serve.Protocol.store_bytes
    s.Serve.Protocol.store_hits s.Serve.Protocol.store_misses
    s.Serve.Protocol.store_evictions

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out =
    Array.to_list Sys.argv |> List.tl
    |> List.find_opt (fun a -> a <> "--smoke")
  in
  let abbrs = if smoke then smoke_apps else Workloads.Suite.abbrs in
  let cores = Domain.recommended_domain_count () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "servebench-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let store1 = Filename.concat dir "store-c1" in
  let store4 = Filename.concat dir "store-c4" in
  (* lets, not a list literal: cell order is load-bearing (cold before
     warm on each store) and list elements evaluate right-to-left *)
  let cold_c1 = run_cell ~label:"cold_c1" ~dir ~store:store1 ~clients:1 abbrs in
  let warm_c1 = run_cell ~label:"warm_c1" ~dir ~store:store1 ~clients:1 abbrs in
  let cold_c4 = run_cell ~label:"cold_c4" ~dir ~store:store4 ~clients:4 abbrs in
  let warm_c4 = run_cell ~label:"warm_c4" ~dir ~store:store4 ~clients:4 abbrs in
  let cells = [ cold_c1; warm_c1; cold_c4; warm_c4 ] in
  let find l = List.find (fun c -> c.label = l) cells in
  let fingerprints = List.concat_map (fun c -> c.fingerprints) cells in
  let identical =
    match fingerprints with
    | [] -> false
    | f :: rest -> List.for_all (( = ) f) rest
  in
  let warm_ok =
    (find "warm_c1").hit_rate >= 0.9 && (find "warm_c4").hit_rate >= 0.9
  in
  let speedup = (find "cold_c1").wall_s /. (find "cold_c4").wall_s in
  let json =
    Printf.sprintf
      {|{
  "description": "crat daemon under N forked client processes, cold vs warm persistent store. Each client runs the %s suite; fingerprints digest every Stats.t received (app order), so equal fingerprints mean store/replay answers are bit-identical to cold simulation. warm cells restart the daemon process on the recorded store.",
  "command": "dune exec bench/servebench.exe -- %sBENCH_PR10.json",
  "cores": %d,
  "apps": %d,
  "speedup_c4_over_c1_cold": %.2f,
  "warm_hit_rate_c1": %.4f,
  "warm_hit_rate_c4": %.4f,
  "fingerprints_identical": %b,
  "cells": [
%s
  ]
}
|}
      (if smoke then "smoke" else "full")
      (if smoke then "--smoke " else "")
      cores (List.length abbrs) speedup (find "warm_c1").hit_rate
      (find "warm_c4").hit_rate identical
      (String.concat ",\n" (List.map cell_json cells))
  in
  (match out with
   | Some path ->
     let oc = open_out path in
     output_string oc json;
     close_out oc
   | None -> print_string json);
  Printf.eprintf
    "cores=%d speedup(c4/c1 cold)=%.2fx warm hit rates %.3f/%.3f identical=%b\n%!"
    cores speedup (find "warm_c1").hit_rate (find "warm_c4").hit_rate identical;
  if not identical then begin
    prerr_endline "FAIL: fingerprints differ across cells";
    exit 1
  end;
  if not warm_ok then begin
    prerr_endline "FAIL: warm-store hit rate below 0.9";
    exit 1
  end;
  (* 4 clients can only beat 1 when each has a core of its own *)
  if cores >= 4 && speedup < 1.0 then begin
    prerr_endline "FAIL: 4 clients slower than 1 on a host with a core per client";
    exit 1
  end
