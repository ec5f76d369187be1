(* The benchmark: four named workloads, their end-to-end metrics, and a
   traced run that splits each workload's time by layer.

     dune exec ./perfbench/perf.exe -- --workload sweep [--seed N]
         [--seconds S] [--trace 0|1] [--json FILE]
     dune exec ./perfbench/perf.exe -- --workload all ...
     dune exec ./perfbench/perf.exe -- --compare PARENT.json CHANGE.json
     dune exec ./perfbench/perf.exe -- --canary

   Metric names, units and bounds come from BENCHMARK.json in the
   working directory; see perfbench/README.md. *)

module Json = Perfkit.Json
module Spec = Perfkit.Spec
module Stat = Perfkit.Stat

let spec_file = "BENCHMARK.json"

(* name -> (set-up, run); a run does its own set-up untimed first *)
let workloads =
  [ ("sweep", (Wl_sweep.setup, Wl_sweep.run))
  ; ("compile", (Wl_compile.setup, Wl_compile.run))
  ; ("serve-cold", (Wl_serve.setup_cold, Wl_serve.run_cold))
  ; ("serve-warm", (Wl_serve.setup_warm, Wl_serve.run_warm))
  ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perf: " ^ msg); exit 2) fmt

(* The result object of one run: every metric of the mode, by name and
   unit, in BENCHMARK.json's order. *)
let result (spec : Spec.t) ~trace (o : Run.outcome) =
  let wanted = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Spec.metric) -> m.Spec.name = name) wanted) then
        fail "metric %s is not declared in %s" name spec_file)
    o.Run.metrics;
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        let v =
          match List.assoc_opt m.Spec.name o.Run.metrics with
          | Some v when Float.is_finite v -> v
          | Some _ -> fail "metric %s is not a finite number" m.Spec.name
          | None when trace -> 0. (* a layer this workload never calls *)
          | None -> fail "metric %s was not measured" m.Spec.name
        in
        (m, v))
      wanted
  in
  ( metrics
  , Json.Obj
      [ ("correct", Json.Bool (o.Run.failed = 0))
      ; ("attempted", Json.Num (float_of_int o.Run.attempted))
      ; ("failed", Json.Num (float_of_int o.Run.failed))
      ; ( "metrics"
        , Json.Obj
            (List.map
               (fun ((m : Spec.metric), v) ->
                 (m.Spec.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Spec.unit_) ]))
               metrics) )
      ] )

let find_workload w =
  match List.assoc_opt w workloads with
  | Some r -> r
  | None -> fail "unknown workload %s" w

let run_one spec ~workload ~seed ~seconds ~trace ~json_out =
  let _, run = find_workload workload in
  let o =
    if trace then run ~seed ~seconds ~trace
    else begin
      let samples, failed = Run.setup_seconds ~workload ~seed in
      let o = run ~seed ~seconds ~trace in
      { Run.attempted = o.Run.attempted + List.length samples
      ; failed = o.Run.failed + failed
      ; metrics = o.Run.metrics @ [ ("setup_s", Stat.median samples) ]
      ; notes =
          (if failed > 0 then
             Printf.sprintf "FAILED: %d of %d set-up processes" failed (List.length samples)
           else Printf.sprintf "ok: set-up in %d fresh processes" (List.length samples))
          :: o.Run.notes
      }
    end
  in
  List.iter (fun l -> prerr_endline (workload ^ ": " ^ l)) o.Run.notes;
  let metrics, obj = result spec ~trace o in
  List.iter
    (fun ((m : Spec.metric), v) ->
      Printf.printf "%s %s %s %s\n" workload m.Spec.name (Json.number v) m.Spec.unit_)
    metrics;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("workload", Json.Str workload)
                ; ("seed", Json.Num (float_of_int seed))
                ; ("trace", Json.Bool trace)
                ; ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())))
                ; ("result", obj)
                ]));
        output_char oc '\n'))
    json_out;
  print_endline (Json.to_string obj);
  if o.Run.failed > 0 then exit 1

(* Each workload in its own child process, one after another, so each
   gets its own heap and its own peak memory. Every workload runs even
   after one fails; the exit code is 1 if any failed. *)
let run_all spec ~seed ~seconds ~trace ~json_out =
  let exe = Sys.executable_name in
  let oks =
    List.map
      (fun (w, _) ->
        let args =
          [ exe; "--workload"; w; "--seed"; string_of_int seed; "--seconds"
          ; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
          @ match json_out with Some f -> [ "--json"; f ] | None -> []
        in
        let pid =
          Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
        in
        snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
      spec.Spec.workloads
  in
  if not (List.for_all Fun.id oks) then exit 1

(* ---------- --compare ---------- *)

let read_runs path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
       let j = Json.of_string l in
       let metrics = Json.to_obj (Json.member "metrics" (Json.member "result" j)) in
       ( Json.to_str (Json.member "workload" j)
       , Json.to_bool (Json.member "trace" j)
       , List.map (fun (k, v) -> (k, Json.to_num (Json.member "value" v))) metrics ))

let compare_files (spec : Spec.t) a b =
  let ra = read_runs a and rb = read_runs b in
  let values runs w name =
    List.filter_map
      (fun (w', trace, ms) -> if w' = w && not trace then List.assoc_opt name ms else None)
      runs
  in
  let worse = ref false in
  Printf.printf "%-10s %-13s %28s %28s %8s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "delta" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (m : Spec.metric) ->
          match (values ra w m.Spec.name, values rb w m.Spec.name) with
          | [], _ | _, [] -> ()
          | parent, change ->
            let show xs =
              let q1, med, q3 = Stat.quartiles xs in
              Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
            in
            let v =
              Stat.verdict ~better:m.Spec.better
                ~bound:(Option.value ~default:0. m.Spec.bound) ~parent ~change
            in
            if v = Stat.Worse then worse := true;
            Printf.printf "%-10s %-13s %28s %28s %+7.1f%%  %s\n" w m.Spec.name (show parent)
              (show change)
              (100. *. ((Stat.median change /. Stat.median parent) -. 1.))
              (Stat.verdict_to_string v))
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  if !worse then exit 1

(* ---------- main ---------- *)

let canary () =
  let c = Run.checks () in
  Wl_sweep.canary c;
  Wl_serve.canary c;
  List.iter print_endline (List.rev c.Run.lines);
  if c.Run.bad > 0 then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "--daemon"; socket; store ] ->
    (* the serve workloads' daemon: this same executable, in a child; it
       exits on its own if the benchmark that started it dies *)
    let parent = Unix.getppid () in
    ignore
      (Thread.create
         (fun () ->
           while Unix.getppid () = parent do
             Thread.delay 0.5
           done;
           exit 1)
         ());
    Serve.Daemon.run ~socket ~store_dir:store ~jobs:1 ()
  | _ ->
    (* a daemon that dies mid-pass must fail the client's write, not kill
       the benchmark *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let workload = ref "" and seed = ref 42 and seconds = ref None and trace = ref 0 in
    let json_out = ref None and compare = ref None and do_canary = ref false in
    let setup_only = ref false in
    let usage =
      "perf.exe --workload all|sweep|compile|serve-cold|serve-warm [--seed N] [--seconds S] \
       [--trace 0|1] [--json FILE] | --compare A.json B.json | --canary"
    in
    Arg.parse
      [ ("--workload", Arg.Set_string workload, "NAME workload to run, or all")
      ; ("--seed", Arg.Set_int seed, "N input seed (default 42)")
      ; ("--seconds", Arg.Float (fun s -> seconds := Some s), "S how long to measure")
      ; ("--trace", Arg.Set_int trace, "0|1 1: per-layer metrics from a traced run")
      ; ("--json", Arg.String (fun f -> json_out := Some f), "FILE append the result line to FILE")
      ; ( "--compare"
        , Arg.Tuple
            (let a = ref "" in
             [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ])
        , "PARENT CHANGE compare two files of --json result lines" )
      ; ("--canary", Arg.Set do_canary, " check the full-suite fingerprints of earlier reports")
      ; ( "--setup-only"
        , Arg.Set setup_only
        , " run only the workload's set-up and exit (what setup_s times, in a fresh process)" )
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage;
    let spec =
      try Spec.load spec_file with
      | Sys_error e | Failure e | Json.Parse_error e -> fail "%s" e
    in
    if !do_canary then canary ()
    else if !setup_only then (fst (find_workload !workload)) ~seed:!seed
    else
      match !compare with
      | Some (a, b) -> compare_files spec a b
      | None ->
        let seconds = Option.value ~default:(float_of_int spec.Spec.run_seconds) !seconds in
        let trace =
          match !trace with
          | 0 -> false
          | 1 -> true
          | _ -> fail "--trace takes 0 or 1"
        in
        (match !workload with
         | "" -> fail "%s" usage
         | "all" -> run_all spec ~seed:!seed ~seconds ~trace ~json_out:!json_out
         | w -> run_one spec ~workload:w ~seed:!seed ~seconds ~trace ~json_out:!json_out)
