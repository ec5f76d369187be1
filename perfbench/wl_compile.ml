(* compile: the CRAT-static compile path, with no simulation at all.
   Each pass compiles all 22 apps on one fresh engine with
   [Crat.Optimizer.plan ~mode:`Static]: app i (suite order) for platform
   i mod 4 of {Fermi, Kepler} x {PTX, machine backend}, with shared
   spilling on or off as the seed draws it. This is the compiler user's
   cost, and the workload that must not move when only the simulator
   changes.

   The static path reads only the inputs' sizes, never their data, so
   the seed acts through the spilling draw. A plan costs the same with
   spilling on or off (the platform is what sets its cost), so the work
   per pass does not depend on the seed while its answers do; every
   plan is checked against the committed digest of its (app, spilling)
   pair. *)

let platforms =
  List.concat_map
    (fun cfg ->
      List.map (fun backend -> (cfg, backend)) [ Machine.Backend.Ptx; Machine.Backend.Machine ])
    [ Gpusim.Config.fermi; Gpusim.Config.kepler ]

let targets ~seed =
  let st = Random.State.make [| seed |] in
  List.mapi
    (fun i app ->
      let cfg, backend = List.nth platforms (i mod List.length platforms) in
      (app, (cfg, backend, Random.State.bool st)))
    Workloads.Suite.all

(* What a compile produces: the resource analysis, OptTLP, every
   candidate's allocation summary and TPSC, and the chosen candidate's
   allocated kernel text (digested). *)
let essence (app : Workloads.App.t) (cfg : Gpusim.Config.t) backend ss resource opt_tlp
    candidates (chosen_reg, chosen_tlp, (chosen : Regalloc.Allocator.t)) =
  ( app.Workloads.App.abbr
  , cfg.Gpusim.Config.name
  , Machine.Backend.to_string backend
  , ss
  , (resource : Crat.Resource.t)
  , opt_tlp
  , List.map
      (fun (reg, tlp, tpsc, spare, (a : Regalloc.Allocator.t)) ->
        ( reg
        , tlp
        , tpsc
        , spare
        , a.Regalloc.Allocator.stats
        , a.Regalloc.Allocator.units_used
        , a.Regalloc.Allocator.scalar_units_used ))
      candidates
  , (chosen_reg, chosen_tlp)
  , Digest.to_hex (Digest.string (Ptx.Printer.kernel_to_string chosen.Regalloc.Allocator.kernel)) )

(* Compile every target with its seeded input. [compile] returns
   (candidate count, essence thunk): essences are digested after the
   pass, outside its timing. *)
let walk ~seed compile =
  List.map
    (fun (app, (cfg, backend, ss)) -> compile app cfg backend ss (Run.seeded_input seed app))
    (targets ~seed)

type pass =
  { answers : (int * (unit -> string)) list
  ; report : Crat.Engine.report
  ; wall : float
  }

let digests answers = List.map (fun (_, e) -> e ()) answers
let fingerprint answers = Run.fingerprint (digests answers)
let points answers = List.fold_left (fun a (n, _) -> a + n) 0 answers

(* Every plan of a pass against the committed digest of its (app,
   spilling) pair; returns the apps whose plan differs. *)
let wrong_plans ~seed answers =
  List.filter_map
    (fun (((app : Workloads.App.t), (_, _, ss)), got) ->
      let on, off = List.assoc app.Workloads.App.abbr Expected.compile_plans in
      if got = if ss then on else off then None else Some app.Workloads.App.abbr)
    (List.combine (targets ~seed) (digests answers))

(* One plan on [engine]: its candidate count and its digest, deferred. *)
let engine_plan engine app cfg backend ss input =
  let p =
    Crat.Optimizer.plan ~mode:`Static ~backend ~shared_spilling:ss ~profile_input:input engine
      cfg app
  in
  let ch = p.Crat.Optimizer.chosen in
  ( List.length p.Crat.Optimizer.candidates
  , fun () ->
      Run.fingerprint
        (essence app cfg backend ss p.Crat.Optimizer.resource p.Crat.Optimizer.opt_tlp
           (List.map
              (fun (c : Crat.Optimizer.candidate) ->
                ( c.Crat.Optimizer.point.Crat.Design_space.reg
                , c.Crat.Optimizer.point.Crat.Design_space.tlp
                , c.Crat.Optimizer.tpsc
                , c.Crat.Optimizer.spare_shm
                , c.Crat.Optimizer.alloc ))
              p.Crat.Optimizer.candidates)
           ( ch.Crat.Optimizer.point.Crat.Design_space.reg
           , ch.Crat.Optimizer.point.Crat.Design_space.tlp
           , ch.Crat.Optimizer.alloc )) )

let engine_pass ~seed =
  let engine = Crat.Engine.create ~jobs:1 () in
  let answers, wall = Span.timed (fun () -> walk ~seed (engine_plan engine)) in
  { answers; report = Crat.Engine.report engine; wall }

let mirror_pass ~seed =
  let m = Mirror.create () in
  let answers =
    walk ~seed (fun app cfg backend ss input ->
      let p =
        Mirror.plan m ~mode:`Static ~backend ~shared_spilling:ss ~profile_input:input cfg app
      in
      let ch = p.Mirror.chosen in
      ( List.length p.Mirror.candidates
      , fun () ->
          Run.fingerprint
            (essence app cfg backend ss p.Mirror.resource p.Mirror.opt_tlp
               (List.map
                  (fun (c : Mirror.candidate) ->
                    ( c.Mirror.point.Crat.Design_space.reg
                    , c.Mirror.point.Crat.Design_space.tlp
                    , c.Mirror.tpsc
                    , c.Mirror.spare
                    , c.Mirror.alloc ))
                  p.Mirror.candidates)
               ( ch.Mirror.point.Crat.Design_space.reg
               , ch.Mirror.point.Crat.Design_space.tlp
               , ch.Mirror.alloc )) ))
  in
  (answers, Mirror.counts m)

(* Set-up: the micro-benchmark memo, lazy initialisation and one plan
   per platform and spilling choice on a small app. *)
let setup ~seed:_ =
  ignore (Crat.Micro.measure Gpusim.Config.fermi);
  ignore (Crat.Micro.measure Gpusim.Config.kepler);
  let engine = Crat.Engine.create ~jobs:1 () in
  List.iter
    (fun (cfg, backend) ->
      List.iter
        (fun ss ->
          ignore
            (Crat.Optimizer.plan ~mode:`Static ~backend ~shared_spilling:ss engine cfg
               (Workloads.Suite.find "GAU")))
        [ true; false ])
    platforms

let run ~seed ~seconds ~trace : Run.outcome =
  let c = Run.checks () in
  setup ~seed;
  if not trace then begin
    let peak = ref 0. in
    let passes =
      Run.repeat_for ~seconds (fun i ->
        let p = engine_pass ~seed in
        if i = 0 then peak := Run.peak_rss_mb "self";
        p)
    in
    List.iteri
      (fun i p ->
        let wrong = wrong_plans ~seed p.answers in
        Run.check c (wrong = []) "compile: pass %d (%s): every plan equals its committed digest%s"
          i (fingerprint p.answers)
          (if wrong = [] then "" else "; not " ^ String.concat " " wrong))
      passes;
    let plans = List.fold_left (fun a p -> a + List.length p.answers) 0 passes in
    { Run.attempted = plans + c.n
    ; failed = c.bad
    ; metrics =
        Run.end_to_end
          ~walls:(List.map (fun p -> p.wall) passes)
          ~points:(List.map (fun p -> points p.answers) passes)
          ~peak_rss_mb:!peak
    ; notes = List.rev c.lines
    }
  end
  else begin
    let rounds =
      Run.repeat_for ~seconds (fun _ ->
        let u = engine_pass ~seed in
        let (answers, counts), snap, wall = Run.traced (fun () -> mirror_pass ~seed) in
        (u, answers, counts, snap, wall))
    in
    List.iteri
      (fun i (u, answers, _, _, _) ->
        Run.check c (fingerprint answers = fingerprint u.answers)
          "compile: traced pass %d gives the untraced answers" i)
      rounds;
    let u, _, counts, _, _ = List.hd rounds in
    let snaps = List.map (fun (_, _, _, s, _) -> s) rounds in
    { Run.attempted = c.n
    ; failed = c.bad
    ; metrics =
        Run.engine_metrics c ~what:"compile" ~replica:counts u.report
        @ Run.layer_metrics snaps
        @ Run.trace_health ~snaps
            ~traced_walls:(List.map (fun (_, _, _, _, w) -> w) rounds)
            ~untraced_walls:(List.map (fun (u, _, _, _, _) -> u.wall) rounds)
    ; notes = List.rev c.lines
    }
  end
