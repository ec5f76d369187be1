(* Tests for the CRAT framework: resource analysis, segmentation, OptTLP
   estimation, design-space pruning, the TPSC metric, micro-benchmarks
   and the end-to-end optimizer. Simulation-backed tests use small
   inputs to keep the suite fast. *)

let fermi = Gpusim.Config.fermi
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* one engine shared across the suite: simulations repeated between
   tests come from the content-addressed store *)
let engine = Crat.Engine.create ()

let small_app abbr =
  let a = Workloads.Suite.find abbr in
  let i = Workloads.App.default_input a in
  let small =
    { i with
      Workloads.App.num_blocks = 4
    ; iters = min 2 i.Workloads.App.iters
    ; passes = min 2 i.Workloads.App.passes
    ; ilabel = "test-small"
    }
  in
  { a with Workloads.App.inputs = [ small ] }

(* ---------- resource analysis ---------- *)

let test_resource_cfd () =
  let a = Workloads.Suite.find "CFD" in
  let r = Crat.Resource.analyze fermi a in
  check_int "MinReg is NumRegister/MaxThreads" 21 r.Crat.Resource.min_reg;
  check_int "BlockSize" 128 r.Crat.Resource.block_size;
  check_int "ShmSize" 0 r.Crat.Resource.shm_size;
  (* CFD's demand exceeds the hardware cap: MaxReg clamps to 63 *)
  check_int "MaxReg at cap" 63 r.Crat.Resource.max_reg;
  check "MaxTLP in range" true (r.Crat.Resource.max_tlp >= 1 && r.Crat.Resource.max_tlp <= 8)

(* the scalar partition [Resource.analyze] hands the allocator *)
let scalar_partition backend ~block_size kernel =
  match backend with
  | Machine.Backend.Ptx -> ((fun _ -> false), 0)
  | Machine.Backend.Machine ->
    (Machine.Scalarize.predicate ~block_size kernel, Machine.Backend.default_scalar_limit)

(* MaxReg is spill-free and MaxReg - 1 is not (unless MaxReg is already
   MinReg), under both register-file backends; the machine backend's
   scalar footprint is the one of the allocation at MaxReg *)
let test_resource_maxreg_is_no_spill_point () =
  let a = Workloads.Suite.find "STM" in
  let kernel = Workloads.App.kernel a in
  let block_size = a.Workloads.App.block_size in
  List.iter
    (fun backend ->
       let name = Machine.Backend.to_string backend in
       let r = Crat.Resource.analyze ~backend fermi a in
       let scalar, scalar_limit = scalar_partition backend ~block_size kernel in
       let alloc reg_limit =
         Regalloc.Allocator.allocate ~scalar ~scalar_limit ~block_size ~reg_limit kernel
       in
       let al = alloc r.Crat.Resource.max_reg in
       check (name ^ ": no spills at MaxReg") true (al.Regalloc.Allocator.spilled = []);
       check_int (name ^ ": scalar footprint at MaxReg")
         al.Regalloc.Allocator.scalar_units_used r.Crat.Resource.sregs_per_warp;
       if r.Crat.Resource.max_reg > r.Crat.Resource.min_reg then
         check (name ^ ": spills just below MaxReg") true
           ((alloc (r.Crat.Resource.max_reg - 1)).Regalloc.Allocator.spilled <> []))
    [ Machine.Backend.Ptx; Machine.Backend.Machine ]

(* (MaxReg, scalar units per warp) the reference way: one full
   allocation per probed limit, and one more for the scalar footprint.
   The rest of [Resource.t] follows from these and the app. *)
let reference_max_reg ~backend (cfg : Gpusim.Config.t) (app : Workloads.App.t) =
  let kernel = Workloads.App.kernel app in
  let block_size = app.Workloads.App.block_size in
  let max_live =
    Cfg.Liveness.max_pressure (Cfg.Liveness.compute (Cfg.Flow.of_kernel kernel))
  in
  let cap = cfg.Gpusim.Config.max_regs_per_thread in
  let scalar, scalar_limit = scalar_partition backend ~block_size kernel in
  let alloc reg_limit =
    Regalloc.Allocator.allocate ~scalar ~scalar_limit ~block_size ~reg_limit kernel
  in
  let spill_free lim = (alloc lim).Regalloc.Allocator.spilled = [] in
  let rec up lim = if lim >= cap || spill_free lim then min lim cap else up (lim + 1) in
  let rec down lim = if lim > 1 && spill_free (lim - 1) then down (lim - 1) else lim in
  let lo = up (min max_live cap) in
  let max_reg = if scalar_limit > 0 && spill_free lo then down lo else lo in
  ( max_reg
  , if scalar_limit = 0 then 0 else (alloc max_reg).Regalloc.Allocator.scalar_units_used )

let test_resource_matches_reference () =
  List.iter
    (fun (cfg : Gpusim.Config.t) ->
       List.iter
         (fun backend ->
            List.iter
              (fun (a : Workloads.App.t) ->
                 let r = Crat.Resource.analyze ~backend cfg a in
                 Alcotest.(check (pair int int))
                   (Printf.sprintf "%s %s %s: MaxReg, sregs/warp" a.Workloads.App.abbr
                      cfg.Gpusim.Config.name (Machine.Backend.to_string backend))
                   (reference_max_reg ~backend cfg a)
                   (r.Crat.Resource.max_reg, r.Crat.Resource.sregs_per_warp))
              Workloads.Suite.all)
         [ Machine.Backend.Ptx; Machine.Backend.Machine ])
    [ fermi; Gpusim.Config.kepler ]

(* ---------- design space ---------- *)

let test_stairs_structure () =
  let a = Workloads.Suite.find "BLK" in
  let r = Crat.Resource.analyze fermi a in
  let stairs = Crat.Design_space.stairs fermi r in
  check "non-empty" true (stairs <> []);
  (* TLP strictly decreasing, registers non-decreasing *)
  let rec ordered = function
    | a :: (b : Crat.Design_space.point) :: rest ->
      a.Crat.Design_space.tlp > b.Crat.Design_space.tlp
      && a.Crat.Design_space.reg <= b.Crat.Design_space.reg
      && ordered (b :: rest)
    | _ -> true
  in
  check "staircase ordered" true (ordered stairs);
  (* every stair point is occupancy-feasible *)
  List.iter
    (fun (p : Crat.Design_space.point) ->
       let occ =
         Gpusim.Occupancy.max_tlp fermi
           (Crat.Resource.usage_at r ~regs:p.Crat.Design_space.reg)
       in
       check "feasible" true (occ >= p.Crat.Design_space.tlp))
    stairs

let test_prune_keeps_low_tlp () =
  let a = Workloads.Suite.find "BLK" in
  let r = Crat.Resource.analyze fermi a in
  let pruned = Crat.Design_space.prune fermi r ~opt_tlp:3 in
  check "non-empty after pruning" true (pruned <> []);
  List.iter
    (fun (p : Crat.Design_space.point) ->
       check "tlp within bound" true (p.Crat.Design_space.tlp <= 3))
    pruned

let test_full_contains_stairs () =
  let a = Workloads.Suite.find "KMN" in
  let r = Crat.Resource.analyze fermi a in
  let full = Crat.Design_space.full fermi r in
  let stairs = Crat.Design_space.stairs fermi r in
  List.iter
    (fun (p : Crat.Design_space.point) ->
       check "stair point in full space" true
         (List.exists
            (fun (q : Crat.Design_space.point) ->
               q.Crat.Design_space.reg = p.Crat.Design_space.reg
               && q.Crat.Design_space.tlp = p.Crat.Design_space.tlp)
            full))
    stairs

(* ---------- TPSC ---------- *)

let test_tlp_gain_decreasing () =
  let g t = Crat.Tpsc.tlp_gain fermi ~block_size:128 ~tlp:t in
  check "gain decreases with TLP" true (g 1 > g 4 && g 4 > g 8);
  check "gain in (0,1)" true (g 1 < 1.0 && g 8 > 0.0)

let test_tpsc_prefers_fewer_spills () =
  let costs = { Crat.Micro.cost_local = 30.; cost_shm = 5. } in
  let no_spill = { Regalloc.Spill.num_local = 0; num_shared = 0; num_other = 0; num_remat = 0 } in
  let spilled = { Regalloc.Spill.num_local = 10; num_shared = 0; num_other = 1; num_remat = 0 } in
  let t1 = Crat.Tpsc.tpsc fermi costs ~block_size:128 ~tlp:4 no_spill in
  let t2 = Crat.Tpsc.tpsc fermi costs ~block_size:128 ~tlp:4 spilled in
  check "no spill beats spill at same TLP" true (t1 < t2)

let test_tpsc_tlp_breaks_ties () =
  let costs = { Crat.Micro.cost_local = 30.; cost_shm = 5. } in
  let s = { Regalloc.Spill.num_local = 0; num_shared = 0; num_other = 0; num_remat = 0 } in
  let lo = Crat.Tpsc.tpsc fermi costs ~block_size:128 ~tlp:2 s in
  let hi = Crat.Tpsc.tpsc fermi costs ~block_size:128 ~tlp:6 s in
  check "higher TLP wins a spill-free tie" true (hi < lo)

let test_tpsc_shared_cheaper_than_local () =
  let costs = Crat.Micro.measure fermi in
  check "micro: local slower than shared" true
    (costs.Crat.Micro.cost_local >= costs.Crat.Micro.cost_shm);
  let local = { Regalloc.Spill.num_local = 10; num_shared = 0; num_other = 1; num_remat = 0 } in
  let shm = { Regalloc.Spill.num_local = 0; num_shared = 10; num_other = 1; num_remat = 0 } in
  check "TPSC prefers shared spills" true
    (Crat.Tpsc.tpsc fermi costs ~block_size:128 ~tlp:4 shm
     <= Crat.Tpsc.tpsc fermi costs ~block_size:128 ~tlp:4 local)

(* ---------- segments & static OptTLP ---------- *)

let test_segments_structure () =
  let a = small_app "CFD" in
  let tr = Crat.Segments.trace fermi a (Workloads.App.default_input a) in
  check "has segments" true (tr.Crat.Segments.segments <> []);
  check "has memory refs" true (tr.Crat.Segments.total_line_refs > 0);
  check "reuse in [0,1]" true
    (tr.Crat.Segments.reuse_ratio >= 0. && tr.Crat.Segments.reuse_ratio <= 1.);
  check "footprint positive" true (tr.Crat.Segments.footprint_bytes > 0);
  (* alternating structure: no two adjacent Mem segments collapse *)
  check "compute segments have positive latency" true
    (List.for_all
       (function
         | Crat.Segments.Compute c -> c > 0
         | Crat.Segments.Mem n -> n > 0)
       tr.Crat.Segments.segments)

(* [Segments.trace] against the trace of the app's full-grid launch:
   every app, every input, Fermi and Kepler, the input's own seed and
   another *)
let test_segments_match_full_grid () =
  List.iter
    (fun (cfg : Gpusim.Config.t) ->
       List.iter
         (fun (app : Workloads.App.t) ->
            List.iter
              (fun (i : Workloads.App.input) ->
                 List.iter
                   (fun seed ->
                      let input = { i with Workloads.App.seed } in
                      let got = Crat.Segments.trace cfg app input in
                      let want =
                        Crat.Segments.of_launch cfg (Workloads.App.launch app ~input ())
                      in
                      let what f =
                        Printf.sprintf "%s %s %s seed %d: %s" app.Workloads.App.abbr
                          i.Workloads.App.ilabel cfg.Gpusim.Config.name seed f
                      in
                      check (what "segments") true
                        (got.Crat.Segments.segments = want.Crat.Segments.segments);
                      check_int (what "line refs") want.Crat.Segments.total_line_refs
                        got.Crat.Segments.total_line_refs;
                      check_int (what "distinct lines") want.Crat.Segments.distinct_lines
                        got.Crat.Segments.distinct_lines;
                      check_int (what "footprint") want.Crat.Segments.footprint_bytes
                        got.Crat.Segments.footprint_bytes;
                      check (what "reuse") true
                        (Float.equal got.Crat.Segments.reuse_ratio
                           want.Crat.Segments.reuse_ratio))
                   [ i.Workloads.App.seed; 339 ])
              app.Workloads.App.inputs)
         Workloads.Suite.all)
    [ Gpusim.Config.fermi; Gpusim.Config.kepler ]

let test_mimic_monotone_in_work () =
  let a = small_app "CFD" in
  let tr = Crat.Segments.trace fermi a (Workloads.App.default_input a) in
  let c1 = Crat.Opttlp.mimic_cycles fermi tr ~warps_per_block:4 ~tlp:1 in
  let c2 = Crat.Opttlp.mimic_cycles fermi tr ~warps_per_block:4 ~tlp:2 in
  check "more blocks, more total cycles" true (c2 >= c1);
  check "but less than double" true (c2 < 2. *. c1 +. 1.)

(* The scheduler loop [mimic_cycles] had before it kept its warps in
   a ready set and a waiting queue: each pick scans for the lowest
   ready warp and an idle step scans every warp for the next ready
   time. The oracle of the test below, which the bitset scheduler must
   match bit for bit. *)
let mimic_cycles_oracle (cfg : Gpusim.Config.t) (tr : Crat.Segments.trace) ~warps_per_block ~tlp
    =
  let segs = Array.of_list tr.Crat.Segments.segments in
  let nseg = Array.length segs in
  let nwarps = tlp * warps_per_block in
  if nseg = 0 || nwarps = 0 then 0.
  else begin
    let block_fp = tr.Crat.Segments.footprint_bytes * warps_per_block in
    let concurrent = float_of_int (tlp * block_fp) in
    let cap_ratio =
      if concurrent <= 0. then 1.
      else min 1. (float_of_int cfg.Gpusim.Config.l1_bytes /. concurrent)
    in
    let hit = tr.Crat.Segments.reuse_ratio *. (cap_ratio ** 2.) in
    let miss_lat = float_of_int (cfg.Gpusim.Config.l2_latency + (cfg.Gpusim.Config.dram_latency / 2)) in
    let line_service =
      (float_of_int cfg.Gpusim.Config.l1_line /. float_of_int cfg.Gpusim.Config.dram_bytes_per_cycle)
      +. (float_of_int cfg.Gpusim.Config.l1_line /. float_of_int cfg.Gpusim.Config.icnt_bytes_per_cycle)
    in
    let line_service = line_service /. Float.max 0.6 cap_ratio in
    let avg_lat l =
      (hit *. float_of_int cfg.Gpusim.Config.l1_hit_latency)
      +. ((1. -. hit) *. (miss_lat +. (float_of_int l *. line_service)))
    in
    let idx = Array.make nwarps 0 in
    let ready = Array.make nwarps 0. in
    let server_free = ref 0. in
    let core = ref 0. in
    let last = ref 0 in
    let remaining = ref nwarps in
    while !remaining > 0 do
      let ready_warp w = idx.(w) < nseg && ready.(w) <= !core in
      let pick =
        if ready_warp !last then Some !last
        else begin
          let rec find w =
            if w >= nwarps then None else if ready_warp w then Some w else find (w + 1)
          in
          find 0
        end
      in
      match pick with
      | None ->
        let next = ref infinity in
        for w = 0 to nwarps - 1 do
          if idx.(w) < nseg then next := min !next ready.(w)
        done;
        if !next = infinity then remaining := 0 else core := !next
      | Some w ->
        last := w;
        (match segs.(idx.(w)) with
         | Crat.Segments.Compute lat ->
           core := !core +. float_of_int lat;
           ready.(w) <- !core
         | Crat.Segments.Mem lines ->
           let issue = float_of_int lines in
           core := !core +. issue;
           let misses = float_of_int lines *. (1. -. hit) in
           let queue_start = max !server_free !core in
           server_free := queue_start +. (misses *. line_service);
           ready.(w) <- max (!core +. avg_lat lines) !server_free);
        idx.(w) <- idx.(w) + 1;
        if idx.(w) >= nseg then decr remaining
    done;
    let finish = ref !core in
    Array.iter (fun r -> finish := max !finish r) ready;
    !finish
  end

(* every app's default trace on Fermi and Kepler, at TLP 1 .. MaxTLP *)
let test_mimic_matches_oracle () =
  List.iter
    (fun (cfg : Gpusim.Config.t) ->
       List.iter
         (fun (app : Workloads.App.t) ->
            let tr = Crat.Segments.trace cfg app (Workloads.App.default_input app) in
            let warps_per_block = app.Workloads.App.block_size / cfg.Gpusim.Config.warp_size in
            let max_tlp = (Crat.Resource.analyze cfg app).Crat.Resource.max_tlp in
            for tlp = 1 to max_tlp do
              let got = Crat.Opttlp.mimic_cycles cfg tr ~warps_per_block ~tlp in
              let want = mimic_cycles_oracle cfg tr ~warps_per_block ~tlp in
              if Int64.bits_of_float got <> Int64.bits_of_float want then
                Alcotest.failf "%s %s tlp %d: %h, the oracle %h" app.Workloads.App.abbr
                  cfg.Gpusim.Config.name tlp got want
            done)
         Workloads.Suite.all)
    [ fermi; Gpusim.Config.kepler ]

(* [Opttlp.lower_bound] never exceeds the mimic: every app's default
   trace on Fermi and Kepler, at TLP 1 .. MaxTLP *)
let test_bound_below_mimic () =
  List.iter
    (fun (cfg : Gpusim.Config.t) ->
       List.iter
         (fun (app : Workloads.App.t) ->
            let tr = Crat.Segments.trace cfg app (Workloads.App.default_input app) in
            let warps_per_block = app.Workloads.App.block_size / cfg.Gpusim.Config.warp_size in
            let max_tlp = (Crat.Resource.analyze cfg app).Crat.Resource.max_tlp in
            for tlp = 1 to max_tlp do
              let lb = Crat.Opttlp.lower_bound cfg tr ~warps_per_block ~tlp in
              let c = Crat.Opttlp.mimic_cycles cfg tr ~warps_per_block ~tlp in
              if not (lb <= c) then
                Alcotest.failf "%s %s tlp %d: bound %h above the mimic's %h"
                  app.Workloads.App.abbr cfg.Gpusim.Config.name tlp lb c
            done)
         Workloads.Suite.all)
    [ fermi; Gpusim.Config.kepler ]

(* a random segment trace, with its block shape and TLP *)
let arbitrary_mimic_case =
  let open QCheck.Gen in
  let segment =
    oneof
      [ map (fun l -> Crat.Segments.Compute l) (int_range 1 80)
      ; map (fun l -> Crat.Segments.Mem l) (int_range 1 8)
      ]
  in
  let gen =
    map
      (fun (((segments, lines), reuse), ((wpb, tlp), kepler)) ->
         let tr =
           { Crat.Segments.segments
           ; total_line_refs = 0
           ; distinct_lines = lines
           ; footprint_bytes = lines * 128
           ; reuse_ratio = reuse
           }
         in
         ((if kepler then Gpusim.Config.kepler else fermi), tr, wpb, tlp))
      (pair
         (pair (pair (list_size (int_range 1 40) segment) (int_range 0 64)) (float_bound_inclusive 1.))
         (pair (pair (int_range 1 8) (int_range 1 16)) bool))
  in
  let print (cfg, tr, wpb, tlp) =
    Printf.sprintf "%s wpb %d tlp %d footprint %d reuse %h: %s" cfg.Gpusim.Config.name wpb tlp
      tr.Crat.Segments.footprint_bytes tr.Crat.Segments.reuse_ratio
      (String.concat " "
         (List.map
            (function
              | Crat.Segments.Compute l -> Printf.sprintf "C%d" l
              | Crat.Segments.Mem l -> Printf.sprintf "M%d" l)
            tr.Crat.Segments.segments))
  in
  QCheck.make ~print gen

let prop_bound_below_mimic =
  QCheck.Test.make ~count:300 ~name:"bound below the mimic on random traces"
    arbitrary_mimic_case (fun (cfg, tr, warps_per_block, tlp) ->
      Crat.Opttlp.lower_bound cfg tr ~warps_per_block ~tlp
      <= Crat.Opttlp.mimic_cycles cfg tr ~warps_per_block ~tlp)

(* [estimate_static]'s rule over a full ladder: [cycles.(t - 1)] is the
   mimic at TLP [t] *)
let full_ladder_choice cycles ~max_tlp =
  let best = ref 1 and best_cost = ref infinity in
  for tlp = 1 to max 1 max_tlp do
    let per_block = cycles.(tlp - 1) /. float_of_int tlp in
    if per_block <= !best_cost *. 1.002 then begin
      best := tlp;
      if per_block < !best_cost then best_cost := per_block
    end
  done;
  !best

(* the early exits keep the argmax: every app, input and platform, at
   max_tlp MaxTLP and 32, against the full ladder of the mimic. "mimic
   matches its scanning oracle" pins the mimic to the oracle up to
   MaxTLP; above it, the first app's default trace is checked against
   the oracle at TLP 32 on each platform *)
let test_static_matches_full_ladder () =
  List.iter
    (fun (cfg : Gpusim.Config.t) ->
       let check_oracle (app : Workloads.App.t) tr ~warps_per_block ~tlp =
         let got = Crat.Opttlp.mimic_cycles cfg tr ~warps_per_block ~tlp in
         let want = mimic_cycles_oracle cfg tr ~warps_per_block ~tlp in
         if Int64.bits_of_float got <> Int64.bits_of_float want then
           Alcotest.failf "%s %s tlp %d: %h, the oracle %h" app.Workloads.App.abbr
             cfg.Gpusim.Config.name tlp got want
       in
       List.iteri
         (fun i (app : Workloads.App.t) ->
            let warps_per_block = app.Workloads.App.block_size / cfg.Gpusim.Config.warp_size in
            let max_tlp = (Crat.Resource.analyze cfg app).Crat.Resource.max_tlp in
            List.iteri
              (fun j (input : Workloads.App.input) ->
                 let tr = Crat.Segments.trace cfg app input in
                 if i = 0 && j = 0 then check_oracle app tr ~warps_per_block ~tlp:32;
                 let cycles =
                   Array.init (max max_tlp 32) (fun i ->
                     Crat.Opttlp.mimic_cycles cfg tr ~warps_per_block ~tlp:(i + 1))
                 in
                 List.iter
                   (fun m ->
                      let want = full_ladder_choice cycles ~max_tlp:m in
                      let got = Crat.Opttlp.estimate_static cfg app ~input ~max_tlp:m () in
                      if got <> want then
                        Alcotest.failf "%s %s %s max_tlp %d: estimate %d, the full ladder %d"
                          app.Workloads.App.abbr cfg.Gpusim.Config.name input.Workloads.App.ilabel
                          m got want)
                   [ max_tlp; 32 ])
              app.Workloads.App.inputs)
         Workloads.Suite.all)
    [ fermi; Gpusim.Config.kepler ]

let test_static_estimate_in_range () =
  List.iter
    (fun abbr ->
       let a = small_app abbr in
       let est = Crat.Opttlp.estimate_static fermi a ~max_tlp:6 () in
       check (abbr ^ " estimate in range") true (est >= 1 && est <= 6))
    [ "CFD"; "KMN"; "GAU" ]

(* ---------- profiling & optimizer (simulation-backed, small) ---------- *)

let test_profile_finds_minimum () =
  let a = small_app "GAU" in
  let pr = Crat.Opttlp.profile engine fermi a ~max_tlp:4 () in
  check_int "all TLPs sampled" 4 (List.length pr.Crat.Opttlp.samples);
  let best_cycles =
    List.fold_left (fun acc (_, c) -> min acc c) max_int pr.Crat.Opttlp.samples
  in
  check "opt is the argmin" true
    (List.assoc pr.Crat.Opttlp.opt_tlp pr.Crat.Opttlp.samples = best_cycles)

let test_optimizer_plan_structure () =
  let a = small_app "KMN" in
  let plan = Crat.Optimizer.plan engine fermi a in
  check "candidates non-empty" true (plan.Crat.Optimizer.candidates <> []);
  check "chosen among candidates" true
    (List.exists
       (fun c -> c == plan.Crat.Optimizer.chosen)
       plan.Crat.Optimizer.candidates);
  check "chosen TLP within OptTLP" true
    (plan.Crat.Optimizer.chosen.Crat.Optimizer.point.Crat.Design_space.tlp
     <= plan.Crat.Optimizer.opt_tlp);
  check "chosen has minimal TPSC" true
    (List.for_all
       (fun c -> c.Crat.Optimizer.tpsc >= plan.Crat.Optimizer.chosen.Crat.Optimizer.tpsc)
       plan.Crat.Optimizer.candidates)

let test_baselines_consistent () =
  let a = small_app "KMN" in
  let m = Crat.Baselines.max_tlp engine fermi a () in
  let o = Crat.Baselines.opt_tlp engine fermi a () in
  check "OptTLP no slower than MaxTLP" true
    (Crat.Baselines.cycles o <= Crat.Baselines.cycles m);
  check "same register build" true (m.Crat.Baselines.reg = o.Crat.Baselines.reg);
  let c, plan = Crat.Baselines.crat engine fermi a () in
  check "CRAT no slower than OptTLP (small run)" true
    (float_of_int (Crat.Baselines.cycles c)
     <= 1.05 *. float_of_int (Crat.Baselines.cycles o));
  check "plan chose the evaluated point" true
    (c.Crat.Baselines.reg
     = plan.Crat.Optimizer.chosen.Crat.Optimizer.point.Crat.Design_space.reg)

let test_engine_cache_hits () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let _ = Crat.Baselines.opt_tlp e fermi a () in
  let r1 = Crat.Engine.report e in
  let _ = Crat.Baselines.opt_tlp e fermi a () in
  let r2 = Crat.Engine.report e in
  check_int "no new simulations on repeat" r1.Crat.Engine.sim_runs
    r2.Crat.Engine.sim_runs;
  check "cache hits recorded" true (r2.Crat.Engine.sim_hits > 0);
  check "allocations also cached" true
    (r2.Crat.Engine.alloc_runs = r1.Crat.Engine.alloc_runs
     && r2.Crat.Engine.alloc_hits > 0)

(* ---------- experiments plumbing ---------- *)

let test_fig7_structure () =
  let rows =
    List.map
      (function
        | Crat.Figure.[ Text abbr; Float (reg, _); Float (shm, _) ] -> (abbr, reg, shm)
        | _ -> Alcotest.fail "fig7 row shape")
      (Crat.Experiments.fig7 fermi Workloads.Suite.all).Crat.Figure.rows
  in
  Alcotest.(check int) "one row per app" 22 (List.length rows);
  List.iter
    (fun (abbr, reg, shm) ->
       check (abbr ^ " utils in [0,1]") true
         (reg >= 0. && reg <= 1.01 && shm >= 0. && shm <= 1.01))
    rows;
  (* the paper's observation: registers far better utilised than shared *)
  let avg f = List.fold_left (fun a r -> a +. f r) 0. rows /. 22. in
  check "registers much better utilised than shared" true
    (avg (fun (_, reg, _) -> reg) > 3. *. avg (fun (_, _, shm) -> shm))

let test_figure_rejects_ragged_row () =
  let columns = Crat.Figure.[ left "app" 6; right "x" 4 ] in
  let fig = Crat.Figure.make ~title:[ "t" ] columns Crat.Figure.[ [ Text "A"; Int 1 ] ] in
  Alcotest.(check string) "renders" "t\napp       x\nA         1\n"
    (Format.asprintf "%a" Crat.Figure.pp fig);
  match
    Crat.Figure.make ~title:[ "t" ] columns Crat.Figure.[ [ Text "A"; Int 1 ]; [ Text "B" ] ]
  with
  | _ -> Alcotest.fail "a ragged row was accepted"
  | exception Invalid_argument _ -> ()

(* the (reg, TLP) points of a fig11 row ["label : (reg=R, TLP=T) ..."] *)
let fig11_points = function
  | [ Crat.Figure.Text line ] ->
    List.filter_map
      (fun s ->
         match Scanf.sscanf s "reg=%d, TLP=%d)" (fun reg tlp -> (reg, tlp)) with
         | p -> Some p
         | exception Scanf.Scan_failure _ | exception End_of_file -> None)
      (String.split_on_char '(' line)
  | _ -> Alcotest.fail "fig11 row shape"

let test_fig11_pruned_subset () =
  let a = small_app "KMN" in
  let stairs, pruned =
    match (Crat.Experiments.fig11 engine fermi a).Crat.Figure.rows with
    | [ stairs; pruned ] -> (fig11_points stairs, fig11_points pruned)
    | _ -> Alcotest.fail "fig11 has two rows"
  in
  check "both lists parsed" true (stairs <> [] && pruned <> []);
  check "pruned points are stair points (same reg cap per TLP)" true
    (List.for_all
       (fun (reg, _) -> List.exists (fun (reg', _) -> reg' >= reg) stairs)
       pruned)

let test_mimic_zero_cases () =
  let tr =
    { Crat.Segments.segments = []
    ; total_line_refs = 0
    ; distinct_lines = 0
    ; footprint_bytes = 0
    ; reuse_ratio = 0.
    }
  in
  check "empty trace costs nothing" true
    (Crat.Opttlp.mimic_cycles fermi tr ~warps_per_block:4 ~tlp:2 = 0.)

let test_geomean () =
  check "geomean of 2 and 8 is 4" true
    (Float.abs (Crat.Experiments.geomean [ 2.; 8. ] -. 4.) < 1e-9);
  check "geomean of empty is 1" true (Crat.Experiments.geomean [] = 1.)

let test_fig6_monotone () =
  let a = Workloads.Suite.find "CFD" in
  let rows =
    List.map
      (function
        | Crat.Figure.[ Int _; Int tlp; Int instrs ] -> (tlp, instrs)
        | _ -> Alcotest.fail "fig6 row shape")
      (Crat.Experiments.fig6 engine fermi a).Crat.Figure.rows
  in
  check "rows exist" true (List.length rows > 5);
  let rec decreasing = function
    | (tlp, instrs) :: ((tlp', instrs') :: _ as rest) ->
      instrs >= instrs' && tlp >= tlp' && decreasing rest
    | _ -> true
  in
  check "instructions and TLP decrease with registers" true (decreasing rows)

let test_fig12_reference_tracks () =
  let a = Workloads.Suite.find "CFD" in
  let rows =
    List.map
      (function
        | Crat.Figure.[ Int _; Int reference; Int crat ] -> (reference, crat)
        | _ -> Alcotest.fail "fig12 row shape")
      (Crat.Experiments.fig12 engine fermi a).Crat.Figure.rows
  in
  check "rows exist" true (List.length rows > 5);
  List.iter
    (fun (reference, crat) ->
       check "both allocators spill less with more registers" true
         (crat >= 0 && reference >= 0))
    rows;
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check "CRAT spill bytes decrease over the sweep" true (snd first > snd last)

let test_energy_model () =
  let s = Gpusim.Stats.create () in
  s.Gpusim.Stats.cycles <- 1000;
  s.Gpusim.Stats.alu_instrs <- 100;
  s.Gpusim.Stats.thread_instrs <- 3200;
  let b = Energy.of_stats s in
  check "positive energy" true (Energy.total b > 0.);
  let s2 = Gpusim.Stats.create () in
  s2.Gpusim.Stats.cycles <- 2000;
  s2.Gpusim.Stats.alu_instrs <- 100;
  s2.Gpusim.Stats.thread_instrs <- 3200;
  check "longer run costs more leakage" true
    (Energy.total (Energy.of_stats s2) > Energy.total b)

let () =
  Alcotest.run "crat"
    [ ( "resource"
      , [ Alcotest.test_case "CFD analysis" `Quick test_resource_cfd
        ; Alcotest.test_case "MaxReg = no-spill point" `Quick
            test_resource_maxreg_is_no_spill_point
        ; Alcotest.test_case "matches per-limit allocation" `Slow
            test_resource_matches_reference
        ] )
    ; ( "design-space"
      , [ Alcotest.test_case "staircase structure" `Quick test_stairs_structure
        ; Alcotest.test_case "pruning keeps low TLP" `Quick test_prune_keeps_low_tlp
        ; Alcotest.test_case "full contains stairs" `Quick test_full_contains_stairs
        ] )
    ; ( "tpsc"
      , [ Alcotest.test_case "TLP gain decreasing" `Quick test_tlp_gain_decreasing
        ; Alcotest.test_case "prefers fewer spills" `Quick test_tpsc_prefers_fewer_spills
        ; Alcotest.test_case "TLP breaks ties" `Quick test_tpsc_tlp_breaks_ties
        ; Alcotest.test_case "shared cheaper than local" `Slow
            test_tpsc_shared_cheaper_than_local
        ] )
    ; ( "static-analysis"
      , [ Alcotest.test_case "segments" `Quick test_segments_structure
        ; Alcotest.test_case "segments match the full-grid trace" `Quick
            test_segments_match_full_grid
        ; Alcotest.test_case "mimic monotone" `Quick test_mimic_monotone_in_work
        ; Alcotest.test_case "estimates in range" `Quick test_static_estimate_in_range
        ; Alcotest.test_case "mimic matches its scanning oracle" `Quick
            test_mimic_matches_oracle
        ; Alcotest.test_case "bound below the mimic" `Quick test_bound_below_mimic
        ; Alcotest.test_case "estimate matches the full ladder" `Quick
            test_static_matches_full_ladder
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_bound_below_mimic ] )
    ; ( "optimizer"
      , [ Alcotest.test_case "profile argmin" `Slow test_profile_finds_minimum
        ; Alcotest.test_case "plan structure" `Slow test_optimizer_plan_structure
        ; Alcotest.test_case "baselines consistent" `Slow test_baselines_consistent
        ; Alcotest.test_case "evaluation cache" `Slow test_engine_cache_hits
        ] )
    ; ( "experiments"
      , [ Alcotest.test_case "geomean" `Quick test_geomean
        ; Alcotest.test_case "fig6 monotone" `Quick test_fig6_monotone
        ; Alcotest.test_case "fig12 tracks" `Quick test_fig12_reference_tracks
        ; Alcotest.test_case "energy model" `Quick test_energy_model
        ; Alcotest.test_case "fig7 structure" `Quick test_fig7_structure
        ; Alcotest.test_case "figure rejects a ragged row" `Quick
            test_figure_rejects_ragged_row
        ; Alcotest.test_case "fig11 pruned subset" `Slow test_fig11_pruned_subset
        ; Alcotest.test_case "mimic zero cases" `Quick test_mimic_zero_cases
        ] )
    ]
