(* Durability tests for the persistent content-addressed store:
   crash-safe writes (a writer killed mid-write never corrupts the
   store), budget-driven LRU eviction, and bit-identical round-trips through the engine's disk layer. *)

let check = Alcotest.(check bool)

let temp_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir d 0o755;
  d

let key_of i = Printf.sprintf "k%04d" i

(* ---------- basic round-trip ---------- *)

let test_roundtrip () =
  let dir = temp_dir "store-rt" in
  let s = Store.open_ dir in
  Store.put s ~kind:"stats" ~key:"a" "hello";
  Alcotest.(check (option string)) "get back" (Some "hello")
    (Store.get s ~kind:"stats" ~key:"a");
  check "mem" true (Store.mem s ~kind:"stats" ~key:"a");
  check "absent" false (Store.mem s ~kind:"stats" ~key:"b");
  Store.put_value s ~kind:"alloc" ~key:"v" (42, "x", [ 1.5 ]);
  Alcotest.(check (option (triple int string (list (float 0.0)))))
    "value round-trip"
    (Some (42, "x", [ 1.5 ]))
    (Store.get_value s ~kind:"alloc" ~key:"v");
  Store.close s;
  (* survives reopen *)
  let s2 = Store.open_ dir in
  Alcotest.(check (option string)) "persisted" (Some "hello")
    (Store.get s2 ~kind:"stats" ~key:"a");
  Store.close s2

(* ---------- crash safety ---------- *)

(* Fork a child that writes entries in a tight loop and SIGKILL it
   mid-stream. Whatever it managed to complete must read back intact
   after reopen; a torn in-progress write must be invisible. *)
let test_killed_writer () =
  let dir = temp_dir "store-kill" in
  let payload = String.make 65536 'x' in
  (match Unix.fork () with
   | 0 ->
     let s = Store.open_ dir in
     (* unbounded loop: the parent's SIGKILL is the only exit *)
     let rec spin i =
       Store.put s ~kind:"trace" ~key:(key_of (i mod 512)) payload;
       spin (i + 1)
     in
     spin 0
   | pid ->
     Unix.sleepf 0.3;
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid));
  let s = Store.open_ dir in
  let st = Store.stats s in
  check "the killed writer completed some entries" true (st.Store.entries > 0);
  (* every surviving entry must verify — corrupt ones read as None and
     are counted *)
  for i = 0 to 511 do
    let key = key_of i in
    if Store.mem s ~kind:"trace" ~key then
      Alcotest.(check (option string))
        (key ^ " intact") (Some payload)
        (Store.get s ~kind:"trace" ~key)
  done;
  check "no corrupt entries after kill" true ((Store.stats s).Store.corrupt = 0);
  (* open_ must have cleared any stale temp file *)
  let tmps = Sys.readdir (Filename.concat dir "tmp") in
  check "tmp dir swept" true (Array.length tmps = 0);
  Store.close s

(* A corrupted entry file (bit rot) is detected, dropped and reported
   absent instead of returned. *)
let test_corrupt_entry_dropped () =
  let dir = temp_dir "store-corrupt" in
  let s = Store.open_ dir in
  Store.put s ~kind:"stats" ~key:"good" "payload-one";
  Store.put s ~kind:"stats" ~key:"bad" "payload-two";
  Store.close s;
  (* flip bytes in the middle of "bad"'s file *)
  let victim = ref None in
  let rec walk d =
    Array.iter
      (fun n ->
         let p = Filename.concat d n in
         if Sys.is_directory p then walk p
         else if n = "bad" then victim := Some p)
      (Sys.readdir d)
  in
  walk dir;
  let path = Option.get !victim in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  let len = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (len - 4) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "????" 0 4);
  Unix.close fd;
  let s = Store.open_ dir in
  Alcotest.(check (option string)) "corrupt entry absent" None
    (Store.get s ~kind:"stats" ~key:"bad");
  check "corruption counted" true ((Store.stats s).Store.corrupt > 0);
  Alcotest.(check (option string)) "good entry unaffected" (Some "payload-one")
    (Store.get s ~kind:"stats" ~key:"good");
  Store.close s

(* ---------- budget / eviction ---------- *)

let test_gc_respects_budget () =
  let dir = temp_dir "store-gc" in
  let payload = String.make 1024 'p' in
  (* room for roughly 8 of the ~1KiB entries *)
  let s = Store.open_ ~budget:(8 * 1100) dir in
  for i = 0 to 31 do
    Store.put s ~kind:"trace" ~key:(key_of i) payload
  done;
  let st = Store.stats s in
  check "bytes within budget" true (st.Store.bytes <= Store.budget s);
  check "evictions happened" true (st.Store.evictions > 0);
  check "newest entry survived" true
    (Store.mem s ~kind:"trace" ~key:(key_of 31));
  check "oldest entry evicted" false
    (Store.mem s ~kind:"trace" ~key:(key_of 0));
  (* LRU, not insertion order: touch an old survivor, then overflow —
     the touched one must outlive untouched older ones *)
  let survivors =
    List.filter
      (fun i -> Store.mem s ~kind:"trace" ~key:(key_of i))
      (List.init 32 Fun.id)
  in
  let oldest = List.hd survivors in
  ignore (Store.get s ~kind:"trace" ~key:(key_of oldest));
  for i = 32 to 36 do
    Store.put s ~kind:"trace" ~key:(key_of i) payload
  done;
  check "recently-read entry survived eviction" true
    (Store.mem s ~kind:"trace" ~key:(key_of oldest));
  Store.close s

(* ---------- engine round-trip ---------- *)

(* Record through one engine into a store; reopen the store under a
   fresh engine and re-ask for the same points: zero functional runs,
   and Stats.t fingerprints bit-identical to the recording pass. *)
let test_engine_roundtrip_bit_identical () =
  let dir = temp_dir "store-engine" in
  let points engine =
    List.map
      (fun abbr ->
         let app = Workloads.Suite.find abbr in
         let a =
           Crat.Engine.allocate engine app
             ~reg_limit:app.Workloads.App.default_regs
         in
         let input = Workloads.App.default_input app in
         let launch =
           Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel ~input ()
         in
         (launch, Gpusim.Config.fermi, 2))
      [ "BFS"; "GAU" ]
  in
  let fingerprint stats =
    Digest.to_hex (Digest.string (Marshal.to_string stats []))
  in
  let cold =
    let store = Store.open_ dir in
    let engine = Crat.Engine.create ~store () in
    let stats = Crat.Engine.simulate_batch engine (points engine) in
    let r = Crat.Engine.report engine in
    check "cold pass simulated" true (r.Crat.Engine.sim_runs > 0);
    Store.close store;
    fingerprint stats
  in
  let warm =
    let store = Store.open_ dir in
    let engine = Crat.Engine.create ~store () in
    let stats = Crat.Engine.simulate_batch engine (points engine) in
    let r = Crat.Engine.report engine in
    check "warm pass ran nothing" true (r.Crat.Engine.sim_runs = 0);
    check "warm pass answered from the store" true
      (r.Crat.Engine.sim_hits > 0);
    check "warm allocations from the store" true
      (r.Crat.Engine.alloc_runs = 0 && r.Crat.Engine.alloc_hits > 0);
    Store.close store;
    fingerprint stats
  in
  Alcotest.(check string) "fingerprints bit-identical" cold warm

(* Trace spill: with stats entries deleted but traces on disk, a fresh
   engine replays instead of re-executing. *)
let test_trace_fallback_from_disk () =
  let dir = temp_dir "store-tracefb" in
  let point engine =
    let app = Workloads.Suite.find "BFS" in
    let a =
      Crat.Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs
    in
    let input = Workloads.App.default_input app in
    let launch =
      Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel ~input ()
    in
    launch
  in
  let cold_stats =
    let store = Store.open_ dir in
    let engine = Crat.Engine.create ~store () in
    let st = Crat.Engine.simulate engine (point engine) Gpusim.Config.fermi ~tlp:2 in
    Store.close store;
    st
  in
  (* drop the cached statistics, keep the recorded trace *)
  let store = Store.open_ dir in
  let engine = Crat.Engine.create ~store () in
  let launch = point engine in
  let skey = Crat.Engine.sim_key engine launch Gpusim.Config.fermi ~tlp:2 in
  Store.delete store ~kind:"stats" ~key:skey;
  let st = Crat.Engine.simulate engine launch Gpusim.Config.fermi ~tlp:2 in
  let r = Crat.Engine.report engine in
  check "answered by replaying the stored trace" true
    (r.Crat.Engine.trace_replays > 0 && r.Crat.Engine.trace_records = 0);
  Alcotest.(check string) "replayed stats bit-identical"
    (Digest.to_hex (Digest.string (Marshal.to_string cold_stats [])))
    (Digest.to_hex (Digest.string (Marshal.to_string st [])));
  Store.close store

let () =
  Random.self_init ();
  Alcotest.run "store"
    [ ( "basic"
      , [ Alcotest.test_case "round-trip and reopen" `Quick test_roundtrip ] )
    ; ( "durability"
      , [ Alcotest.test_case "writer killed mid-write" `Quick test_killed_writer
        ; Alcotest.test_case "corrupt entry dropped" `Quick
            test_corrupt_entry_dropped
        ] )
    ; ( "budget"
      , [ Alcotest.test_case "gc respects byte budget" `Quick
            test_gc_respects_budget
        ] )
    ; ( "engine"
      , [ Alcotest.test_case "cross-process round-trip bit-identical" `Slow
            test_engine_roundtrip_bit_identical
        ; Alcotest.test_case "trace fallback from disk" `Slow
            test_trace_fallback_from_disk
        ] )
    ]
