module G = Gpusim

let record (l : G.Launch.t) =
  let tr = G.Replay.create l in
  ignore (G.Emulator.run ~record:tr l);
  G.Replay.finish tr;
  tr

let r20 (app : Workloads.App.t) =
  (Regalloc.Allocator.allocate ~block_size:app.Workloads.App.block_size
     ~shared_policy:(`Spare 512) ~reg_limit:20 (Workloads.App.kernel app))
    .Regalloc.Allocator.kernel

let input (app : Workloads.App.t) ~blocks =
  { (Workloads.App.default_input app) with Workloads.App.num_blocks = blocks }

let statdump ?(blocks = 2) ?(tlps = [ 1; 3 ]) () =
  List.concat_map
    (fun (app : Workloads.App.t) ->
       let input = input app ~blocks in
       let alloc = r20 app in
       List.concat_map
         (fun tlp ->
            List.map
              (fun (build, kernel) ->
                 let l = Workloads.App.launch app ?kernel ~tlp ~input () in
                 ( Printf.sprintf "%s/%s/tlp%d" app.Workloads.App.abbr build tlp
                 , l
                 , G.Sm.run G.Config.fermi l ))
              [ ("default", None); ("r20", Some alloc) ])
         tlps)
    Workloads.Suite.all

let limit_cycles = 1500

(* The runs of one build, each named by its variant and TLP. Sm runs
   replay the build's trace; the Gpu run records its own. *)
let variant_runs ~full tr (l : G.Launch.t) =
  let sm ?max_cycles ?scheduler ?bypass_global ?dynamic_tlp cfg tlp =
    let lt = G.Launch.with_tlp l tlp in
    let st =
      try G.Sm.run ?max_cycles ?scheduler ?bypass_global ?dynamic_tlp ~replay:tr cfg lt
      with G.Sm.Cycle_limit st -> st
    in
    [ st ]
  in
  let fermi = G.Config.fermi in
  let always =
    [ ("dyn/tlp2", fun () -> sm ~dynamic_tlp:true fermi 2)
    ; ("dyn/tlp5", fun () -> sm ~dynamic_tlp:true fermi 5)
    ; ("bypass/tlp3", fun () -> sm ~bypass_global:true fermi 3)
    ]
  in
  let rest =
    [ ("lrr/tlp1", fun () -> sm ~scheduler:`Lrr fermi 1)
    ; ("lrr/tlp3", fun () -> sm ~scheduler:`Lrr fermi 3)
    ; ("kepler/tlp2", fun () -> sm G.Config.kepler 2)
    ; ("limit/tlp3", fun () -> sm ~max_cycles:limit_cycles fermi 3)
    ; ( "gpu2/tlp2"
      , fun () ->
          let r = G.Gpu.run ~sms:2 fermi (G.Launch.with_tlp l 2) in
          Array.to_list r.G.Gpu.per_sm )
    ]
  in
  List.concat_map
    (fun (name, run) -> List.mapi (fun i st -> (name, i, st)) (run ()))
    (if full then always @ rest else always)

let variants () =
  List.concat_map
    (fun (app : Workloads.App.t) ->
       let input = input app ~blocks:6 in
       List.concat_map
         (fun (build, kernel, full) ->
            let l = Workloads.App.launch app ?kernel ~input () in
            List.map
              (fun (variant, sm, st) ->
                 ( Printf.sprintf "%s/%s/%s/sm%d" app.Workloads.App.abbr build variant sm
                 , st ))
              (variant_runs ~full (record l) l))
         [ ("default", None, true)
         ; ("r20", Some (r20 app), false)
         ])
    Workloads.Suite.all

(* One allocation's answer: the allocated kernel text and the spill
   statistics, or the fact of a rejection. The message's wording is
   pinned by test/golden/cli_regs.expected, not here, so rewording it
   leaves every stored allocation valid. *)
let allocation ~strategy ~shared_policy ~scalar ~scalar_limit ~reg_limit
    (app : Workloads.App.t) =
  match
    Regalloc.Allocator.allocate ~strategy ~shared_policy ~scalar ~scalar_limit
      ~block_size:app.Workloads.App.block_size ~reg_limit (Workloads.App.kernel app)
  with
  | a ->
    Digest.to_hex
      (Digest.string
         (Ptx.Printer.kernel_to_string a.Regalloc.Allocator.kernel
          ^ Marshal.to_string a.Regalloc.Allocator.stats []))
  | exception Failure _ -> "rejected"

let alloc_limits = [ 12; 20 ]
let alloc_spares = [ 0; 512; 8192 ]

let allocations () =
  List.concat_map
    (fun (app : Workloads.App.t) ->
       let kernel = Workloads.App.kernel app in
       let block_size = app.Workloads.App.block_size in
       let partitions =
         [ ("ptx", (fun _ -> false), 0)
         ; ( "machine"
           , Machine.Scalarize.predicate ~block_size kernel
           , Machine.Backend.default_scalar_limit )
         ]
       in
       List.concat_map
         (fun (sname, strategy) ->
            List.concat_map
              (fun (pname, scalar, scalar_limit) ->
                 List.concat_map
                   (fun spare ->
                      let shared_policy = if spare > 0 then `Spare spare else `Off in
                      List.map
                        (fun reg_limit ->
                           ( Printf.sprintf "%s/%s/%s/spare%d/r%d" app.Workloads.App.abbr
                               sname pname spare reg_limit
                           , allocation ~strategy ~shared_policy ~scalar ~scalar_limit
                               ~reg_limit app ))
                        alloc_limits)
                   alloc_spares)
              partitions)
         [ ("cb", Regalloc.Allocator.Chaitin_briggs)
         ; ("ls", Regalloc.Allocator.Linear_scan)
         ])
    Workloads.Suite.all

(* Every app under every input, as the SSA kernel and as the engine's
   default-register allocation: the launches the sweeps key. *)
let launch_keys () =
  let eng = Crat.Engine.create () in
  List.concat_map
    (fun (app : Workloads.App.t) ->
       let alloc =
         Crat.Engine.allocate eng app ~reg_limit:app.Workloads.App.default_regs
       in
       List.concat_map
         (fun (input : Workloads.App.input) ->
            List.map
              (fun (build, kernel) ->
                 ( Printf.sprintf "%s/%s/%s" app.Workloads.App.abbr
                     input.Workloads.App.ilabel build
                 , Crat.Engine.launch_key eng
                     (Workloads.App.launch app ?kernel ~input ()) ))
              [ ("ssa", None); ("default", Some alloc.Regalloc.Allocator.kernel) ])
         app.Workloads.App.inputs)
    Workloads.Suite.all

let digest entries =
  Digest.to_hex (Digest.string (Marshal.to_string (List.map snd entries) []))
