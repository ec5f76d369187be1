(* sweep: the paper-reproduction path. Each pass runs a slice of the
   fig13 family on one fresh engine (jobs 1, replay on, no store): for
   each app, MaxTLP, OptTLP, CRAT-local and CRAT, as
   [Crat.Experiments.compare_app] does, with the seeded input as both
   the evaluated and the profiling input. Kepler points replay the
   traces Fermi points recorded. *)

let fermi = Gpusim.Config.fermi
let kepler = Gpusim.Config.kepler
let apps = List.map Workloads.Suite.find

(* (config, apps in the figure's order) *)
type figure = Gpusim.Config.t * Workloads.App.t list

(* The pass: two resource-sensitive apps on Fermi and again on Kepler —
   HST, where CRAT wins 1.61x, and STM, where it keeps OptTLP's build —
   and two cheap insensitive apps whose loads gather through a seeded
   index array (BFS, PTF), so the seed moves addresses and cache
   behaviour, not only data values. It takes about 5 s on a 2-core
   host, so a run holds several passes, and its traced time splits
   across the layers like the whole family's; [perf.exe --canary]
   prints both splits. *)
let pass_figures : figure list =
  [ (fermi, apps [ "HST"; "STM" ])
  ; (kepler, apps [ "HST"; "STM" ])
  ; (fermi, apps [ "BFS"; "PTF" ])
  ]

(* The whole family, for the canary. *)
let full_figures : figure list =
  [ (fermi, Workloads.Suite.sensitive)
  ; (kepler, Workloads.Suite.sensitive)
  ; (fermi, Workloads.Suite.insensitive)
  ]

type evaluated = string * int * int * Gpusim.Stats.t

(* Per figure, per app in the figure's order: (abbr, [MaxTLP; OptTLP;
   CRAT-local; CRAT]) — digested exactly as BENCH_PR5.json's essence. *)
type answers = (string * evaluated list) list list

(* [eval] answers one app of one figure, on the seeded input. *)
let walk ~seed figures eval : answers =
  List.map
    (fun (cfg, fig_apps) ->
      List.map
        (fun (app : Workloads.App.t) ->
          (app.Workloads.App.abbr, eval cfg app (Run.seeded_input seed app)))
        fig_apps)
    figures

let essence (e : Crat.Baselines.evaluated) =
  (e.Crat.Baselines.label, e.Crat.Baselines.reg, e.Crat.Baselines.tlp, e.Crat.Baselines.stats)

type engine_pass =
  { answers : answers
  ; report : Crat.Engine.report
  ; wall : float
  }

let engine_pass ?(replay = true) ~seed figures =
  let engine = Crat.Engine.create ~jobs:1 ~replay () in
  let answers, wall =
    Span.timed (fun () ->
      walk ~seed figures (fun cfg app input ->
        let m = Crat.Baselines.max_tlp engine cfg app ~input () in
        let o = Crat.Baselines.opt_tlp engine cfg app ~input () in
        let cl, _ =
          Crat.Baselines.crat ~shared_spilling:false ~profile_input:input engine cfg app
            ~input ()
        in
        let c, _ = Crat.Baselines.crat ~profile_input:input engine cfg app ~input () in
        List.map essence [ m; o; cl; c ]))
  in
  { answers; report = Crat.Engine.report engine; wall }

let mirror_pass ~seed figures =
  let m = Mirror.create () in
  let answers =
    walk ~seed figures (fun cfg app input ->
      let mx = Mirror.max_tlp m cfg app ~input in
      let o = Mirror.opt_tlp m cfg app ~input in
      let cl = Mirror.crat m ~shared_spilling:false cfg app ~input in
      let c = Mirror.crat m ~shared_spilling:true cfg app ~input in
      [ mx; o; cl; c ])
  in
  (answers, Mirror.counts m)

let points (r : Crat.Engine.report) = r.Crat.Engine.sim_runs + r.Crat.Engine.sim_hits

(* Set-up: heap growth, the per-config micro-benchmark memo and lazy
   initialisation, so the first pass is not billed for them. *)
let setup ~seed =
  ignore (Crat.Micro.measure fermi);
  ignore (Crat.Micro.measure kepler);
  ignore (engine_pass ~seed [ (fermi, apps [ "GAU" ]) ])

let run ~seed ~seconds ~trace : Run.outcome =
  let c = Run.checks () in
  setup ~seed;
  if not trace then begin
    let peak = ref 0. in
    let passes =
      Run.repeat_for ~seconds (fun i ->
        let p = engine_pass ~seed pass_figures in
        if i = 0 then peak := Run.peak_rss_mb "self";
        p)
    in
    let fps = List.map (fun p -> Run.fingerprint p.answers) passes in
    let fp = List.hd fps in
    Run.check c (List.for_all (( = ) fp) fps) "sweep: %d passes agree (%s)"
      (List.length fps) fp;
    if seed = 42 then
      Run.check c (fp = Expected.sweep_pass) "sweep: seed-42 fingerprint %s = committed %s"
        fp Expected.sweep_pass;
    (* replayed statistics must equal cold functional simulation; the
       Kepler figure is the one whose points replay traces recorded
       under another configuration *)
    let kepler_fig = List.nth pass_figures 1 in
    let cold = engine_pass ~replay:false ~seed [ kepler_fig ] in
    Run.check c
      (Run.fingerprint cold.answers = Run.fingerprint [ List.nth (List.hd passes).answers 1 ])
      "sweep: Kepler answers with replay off equal the replayed ones";
    let pts = List.map (fun p -> points p.report) passes in
    { Run.attempted = List.fold_left ( + ) c.n pts
    ; failed = c.bad
    ; metrics =
        Run.end_to_end ~walls:(List.map (fun p -> p.wall) passes) ~points:pts ~peak_rss_mb:!peak
    ; notes = List.rev c.lines
    }
  end
  else begin
    let rounds =
      Run.repeat_for ~seconds (fun _ ->
        let u = engine_pass ~seed pass_figures in
        let (answers, counts), snap, wall = Run.traced (fun () -> mirror_pass ~seed pass_figures) in
        (u, answers, counts, snap, wall))
    in
    List.iteri
      (fun i (u, answers, _, _, _) ->
        Run.check c (Run.fingerprint answers = Run.fingerprint u.answers)
          "sweep: traced pass %d gives the untraced answers" i)
      rounds;
    let u, _, counts, _, _ = List.hd rounds in
    let snaps = List.map (fun (_, _, _, s, _) -> s) rounds in
    { Run.attempted = c.n
    ; failed = c.bad
    ; metrics =
        Run.engine_metrics c ~what:"sweep" ~replica:counts u.report
        @ Run.layer_metrics snaps
        @ Run.trace_health ~snaps
            ~traced_walls:(List.map (fun (_, _, _, _, w) -> w) rounds)
            ~untraced_walls:(List.map (fun (u, _, _, _, _) -> u.wall) rounds)
    ; notes = List.rev c.lines
    }
  end

(* The layers that take nearly all of a sweep's time. *)
let split_layers =
  [ "core.resource"; "gpusim.sm_record"; "gpusim.sm_replay"; "regalloc.allocate" ]

(* A traced walk of [figures] at the default inputs: its answers, its
   counters, and the share of its wall each split layer took. *)
let traced_split figures =
  let (answers, counts), snap, wall = Run.traced (fun () -> mirror_pass ~seed:42 figures) in
  let share name =
    match List.assoc_opt name snap with
    | Some (s, _, _) -> s /. wall
    | None -> 0.
  in
  let shown =
    Printf.sprintf "%.1f s: %s" wall
      (String.concat ", "
         (List.map (fun n -> Printf.sprintf "%s %.0f%%" n (100. *. share n)) split_layers))
  in
  (answers, counts, shown)

(* The full family at the default inputs against the earlier reports;
   then the same family traced, whose layer split the pass must
   resemble. *)
let canary c =
  let p = engine_pass ~seed:42 full_figures in
  let fp = Run.fingerprint p.answers in
  Run.check c (fp = Expected.full_sweep) "fig13 family fingerprint %s = %s" fp
    Expected.full_sweep;
  let family, family_counts, family_split = traced_split full_figures in
  Run.check c (Run.fingerprint family = fp) "fig13 family traced walk gives the same answers";
  Run.check c
    (Run.count_drift family_counts (Mirror.counts_of_report p.report) = 0)
    "fig13 family traced walk's counters equal Engine.report's";
  let _, _, pass_split = traced_split pass_figures in
  Run.note c "traced split, fig13 family: %s" family_split;
  Run.note c "traced split, sweep pass:   %s" pass_split;
  let r = p.report in
  let counts =
    ( r.Crat.Engine.sim_runs
    , r.Crat.Engine.sim_hits
    , r.Crat.Engine.trace_records
    , r.Crat.Engine.trace_replays
    , r.Crat.Engine.alloc_runs
    , r.Crat.Engine.alloc_hits )
  in
  Run.check c (counts = Expected.full_sweep_counts) "fig13 family engine counts";
  let cycles (_, _, _, (st : Gpusim.Stats.t)) = float_of_int st.Gpusim.Stats.cycles in
  let geomean =
    match p.answers with
    | fig13 :: _ ->
      Crat.Experiments.geomean
        (List.map
           (function
             | _, [ _; o; _; crat ] -> cycles o /. cycles crat
             | _ -> nan)
           fig13)
    | [] -> nan
  in
  let g = Printf.sprintf "%.4f" geomean in
  Run.check c (g = Expected.full_sweep_crat_geomean) "fig13 CRAT/OptTLP geomean %s = %s" g
    Expected.full_sweep_crat_geomean
