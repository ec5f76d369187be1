(* What every workload shares: seeded orders, the timed pass loop,
   set-up timed in fresh processes, memory high-water marks, and turning
   samples and spans into named metrics. *)

module Stat = Perfkit.Stat

type outcome =
  { attempted : int
  ; failed : int
  ; metrics : (string * float) list
  ; notes : string list  (** human-readable lines for stderr *)
  }

(* ---------- seeds ---------- *)

let shuffle ~seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The app's default input with its data drawn from [seed]: sizes, trip
   counts and geometry stay those of the paper figure, so the amount of
   work does not depend on the seed; at seed 42 this is exactly the
   default input. *)
let seeded_input seed app = { (Workloads.App.default_input app) with Workloads.App.seed }

(* ---------- timing ---------- *)

(* Run [pass] until [seconds] have elapsed, and at least twice; returns
   each pass's result in order. *)
let repeat_for ~seconds pass =
  let t0 = Span.now_ns () in
  let rec go i acc =
    if i >= 2 && Span.seconds_since t0 >= seconds then List.rev acc
    else go (i + 1) (pass i :: acc)
  in
  go 0 []

(* Set-up time: this executable is started with [--setup-only] at least
   [setup_min] times, and again until [setup_budget] seconds of samples
   are in (at most [setup_max]); each sample is the wall from its spawn
   to its exit. Every sample is a fresh process, so one-time work
   (module initialisation, lazy tables, memos) is billed to each of
   them, and work a change moves into set-up shows. A short set-up
   takes more samples: its time on a shared host is bimodal, and five
   samples let the median flip between the modes from run to run.
   Returns the samples and how many of the children failed. *)
let setup_min = 5
let setup_max = 25
let setup_budget = 2.

let setup_seconds ~workload ~seed =
  let exe = Sys.executable_name in
  let args = [| exe; "--setup-only"; "--workload"; workload; "--seed"; string_of_int seed |] in
  let sample () =
    Span.timed (fun () ->
      let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
      snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
  in
  let rec go n total acc =
    if n >= setup_max || (n >= setup_min && total >= setup_budget) then acc
    else
      let ok, s = sample () in
      go (n + 1) (total +. s) ((ok, s) :: acc)
  in
  let samples = go 0 0. [] in
  (List.map snd samples, List.length (List.filter (fun (ok, _) -> not ok) samples))

(* ---------- memory ---------- *)

(* VmHWM of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
    let rec go () =
      match In_channel.input_line ic with
      | None -> failwith ("no VmHWM in " ^ path)
      | Some l ->
        (match Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.
         | None -> go ())
    in
    go ())

(* ---------- checks ---------- *)

(* Checks a run makes: each adds one attempted operation, and one failed
   operation when it does not hold. *)
type checks =
  { mutable n : int
  ; mutable bad : int
  ; mutable lines : string list
  }

let checks () = { n = 0; bad = 0; lines = [] }

let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.n <- c.n + 1;
      if not ok then begin
        c.bad <- c.bad + 1;
        c.lines <- ("FAILED: " ^ msg) :: c.lines
      end
      else c.lines <- ("ok: " ^ msg) :: c.lines)
    fmt

(* A finding reported beside the checks that does not fail the run. *)
let note c fmt = Printf.ksprintf (fun msg -> c.lines <- ("note: " ^ msg) :: c.lines) fmt

(* ---------- metrics ---------- *)

let median_of f l = Stat.median (List.map f l)

(* The end-to-end metrics every workload measures (set-up time is added
   by the caller): the fastest pass's wall and throughput, and peak
   memory.

   Why the fastest: on a shared host, load from other tenants only ever
   adds time, in bursts of a few seconds. Every pass does the whole
   workload, so a slower code path slows the fastest pass too, while a
   burst that covers half a run moves the median pass but not the
   fastest one.

   Why no latency percentile: request latency did not repeat. On
   serve-warm the median request took 0.5 to 3.8 ms over 20 s windows of
   one process, as host load changed how long a request waits for a
   thread or domain to be scheduled; the p90 fell on the cheapest of the
   eleven Kepler requests, or on a request queued behind one of them on
   the other connection, as the seed's order decided. The traced run
   reports serve.request.{p50,p90,p99,max}_ms per layer instead. *)
let end_to_end ~walls ~points ~peak_rss_mb =
  [ ("wall_s", List.fold_left Float.min infinity walls)
  ; ( "points_per_s"
    , List.fold_left Float.max 0. (List.map2 (fun p w -> float_of_int p /. w) points walls) )
  ; ("peak_rss_mb", peak_rss_mb)
  ]

(* Every span name the traced walks use, with the throughput each one
   reports ([work] per second, scaled). A layer a workload does not
   touch reports zero. *)
let layers =
  [ ("ptx.digest", Some ("mb_per_s", 1e-6))
  ; ("workloads.kernel", None)
  ; ("workloads.launch", None)
  ; ("regalloc.allocate", Some ("instrs_per_s", 1.))
  ; ("machine.scalarize", None)
  ; ("core.resource", None)
  ; ("core.opttlp_static", None)
  ; ("core.engine_allocate", None)
  ; ("core.sim_key", None)
  ; ("gpusim.launch_key", None)
  ; ("gpusim.memory_copy", None)
  ; ("gpusim.sm_record", Some ("winstr_per_s", 1.))
  ; ("gpusim.sm_replay", Some ("winstr_per_s", 1.))
  ; ("gpusim.trace_encode", Some ("mb_per_s", 1e-6))
  ; ("store.put", Some ("mb_per_s", 1e-6))
  ; ("store.get", Some ("mb_per_s", 1e-6))
  ; ("store.open", None)
  ; ("serve.frame", None)
  ]

(* Per-layer metrics from the span snapshots of several traced passes:
   the median over passes of each layer's seconds, calls and
   throughput. *)
let layer_metrics snaps =
  List.concat_map
    (fun (name, tput) ->
      let get snap = Option.value ~default:(0., 0, 0.) (List.assoc_opt name snap) in
      let s = median_of (fun sn -> let s, _, _ = get sn in s) snaps in
      let calls = median_of (fun sn -> let _, c, _ = get sn in float_of_int c) snaps in
      [ (name ^ ".s", s); (name ^ ".calls", calls) ]
      @
      match tput with
      | None -> []
      | Some (suffix, scale) ->
        [ ( name ^ "." ^ suffix
          , median_of
              (fun sn ->
                let s, _, w = get sn in
                if s > 0. then w *. scale /. s else 0.)
              snaps )
        ])
    layers

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* How far a traced walk's counters are from the engine's: the sum of
   the six differences, 0 while the walk follows the engine's memo
   policy. *)
let count_drift (a : Mirror.counts) (b : Mirror.counts) =
  List.fold_left
    (fun acc d -> acc + abs d)
    0
    [ a.Mirror.sim_runs - b.Mirror.sim_runs
    ; a.Mirror.sim_hits - b.Mirror.sim_hits
    ; a.Mirror.trace_records - b.Mirror.trace_records
    ; a.Mirror.trace_replays - b.Mirror.trace_replays
    ; a.Mirror.alloc_runs - b.Mirror.alloc_runs
    ; a.Mirror.alloc_hits - b.Mirror.alloc_hits
    ]

(* The counters of [Crat.Engine.report], and [trace.count_drift]: how
   far the traced walk's counters ([replica]) are from them. A drift is
   reported, and noted on stderr, rather than failed, because an engine
   change can alter the counts without changing any answer; the per-layer
   split then describes the walk's work, not the engine's, until the walk
   follows it again. *)
let engine_metrics ?replica c ~what (r : Crat.Engine.report) =
  let e = Mirror.counts_of_report r in
  let drift = match replica with Some m -> count_drift m e | None -> 0 in
  if drift > 0 then
    note c "%s: the traced walk's counters differ from Engine.report's by %d" what drift;
  [ ("engine.sim_runs", float_of_int e.Mirror.sim_runs)
  ; ("engine.sim_hits", float_of_int e.Mirror.sim_hits)
  ; ("engine.trace_records", float_of_int e.Mirror.trace_records)
  ; ("engine.trace_replays", float_of_int e.Mirror.trace_replays)
  ; ("engine.alloc_runs", float_of_int e.Mirror.alloc_runs)
  ; ("engine.alloc_hits", float_of_int e.Mirror.alloc_hits)
  ; ("engine.replay_ratio", ratio e.Mirror.trace_replays e.Mirror.sim_runs)
  ; ("engine.alloc_hit_ratio", ratio e.Mirror.alloc_hits (e.Mirror.alloc_runs + e.Mirror.alloc_hits))
  ; ("trace.count_drift", float_of_int drift)
  ]

(* Harness health: the share of a traced pass's wall the spans account
   for, and how much slower the traced pass ran than the untraced one. *)
let trace_health ~snaps ~traced_walls ~untraced_walls =
  [ ( "trace.coverage"
    , Stat.median (List.map2 (fun sn w -> Span.total_seconds sn /. w) snaps traced_walls) )
  ; ("trace.overhead", (Stat.median traced_walls /. Stat.median untraced_walls) -. 1.)
  ]

(* A traced pass: spans on, fresh totals; returns the result, the span
   snapshot and the pass's wall seconds. *)
let traced f =
  Span.reset ();
  Span.enabled := true;
  let r, wall = Fun.protect ~finally:(fun () -> Span.enabled := false) (fun () -> Span.timed f) in
  (r, Span.snapshot (), wall)

let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))
