(* Canonical Stats.t fingerprint over the synthetic workload suite.

   Runs every workload through the cycle-level SM simulator — both the
   default-register kernel and a register-allocated variant with
   local/shared spill code — and prints every Stats.t field in a fixed
   textual format. Two builds of the simulator are semantics-equivalent
   iff their fingerprints are byte-identical. Tier-1 pins the same
   surface: test/test_replay.ml digests its cold statistics and checks
   the digest against Crat.Engine.model_epoch. When that test fails,
   diff this tool's output between the two builds to see which configs
   moved.

   [--variants] prints instead the variant surface (dynamic TLP, LRR,
   L1 bypass, Kepler, a cycle-limit payload, two SMs), whose digest
   test/test_replay.ml pins too. [--allocations] prints the allocation
   surface (each workload under every strategy, backend partition,
   shared spare and limit the engine's allocation key carries), whose
   digest test/test_regalloc.ml checks against Crat.Engine.alloc_epoch.
   [--launch-keys] prints the launch-key surface (Crat.Engine.launch_key
   of every workload, input and build), whose digest test/test_replay.ml
   pins. All four surfaces are defined in test/support/surface.ml.

   Usage: dune exec bench/statdump.exe [-- --blocks N] [--tlp T,T,...]
          dune exec bench/statdump.exe -- --variants
          dune exec bench/statdump.exe -- --allocations
          dune exec bench/statdump.exe -- --launch-keys *)

let pp_stats name (st : Gpusim.Stats.t) =
  Printf.printf
    "%s cycles=%d wi=%d ti=%d issue=%d sb=%d memc=%d bar=%d idle=%d replay=%d \
     gld=%d gst=%d lld=%d lst=%d sld=%d sst=%d bankc=%d gseg=%d lseg=%d \
     l1r=%d l1rh=%d l1w=%d l1wh=%d l1rf=%d l1wb=%d l1f=%d \
     l2r=%d l2rh=%d l2w=%d l2wh=%d l2rf=%d l2wb=%d l2f=%d \
     dram=%d blocks=%d maxblk=%d sfu=%d alu=%d\n"
    name st.Gpusim.Stats.cycles st.warp_instrs st.thread_instrs st.issue_cycles
    st.stall_scoreboard st.stall_mem_congestion st.stall_barrier st.stall_idle
    st.lsu_replay_cycles st.global_load_lanes st.global_store_lanes
    st.local_load_lanes st.local_store_lanes st.shared_load_lanes
    st.shared_store_lanes st.shared_bank_conflicts st.global_segments
    st.local_segments st.l1.Gpusim.Cache.reads st.l1.Gpusim.Cache.read_hits
    st.l1.Gpusim.Cache.writes st.l1.Gpusim.Cache.write_hits
    st.l1.Gpusim.Cache.reserve_fails st.l1.Gpusim.Cache.writebacks
    st.l1.Gpusim.Cache.fills st.l2.Gpusim.Cache.reads
    st.l2.Gpusim.Cache.read_hits st.l2.Gpusim.Cache.writes
    st.l2.Gpusim.Cache.write_hits st.l2.Gpusim.Cache.reserve_fails
    st.l2.Gpusim.Cache.writebacks st.l2.Gpusim.Cache.fills st.dram_bytes
    st.blocks_completed st.max_concurrent_blocks st.sfu_instrs st.alu_instrs

let () =
  let blocks = ref 2 in
  let tlps = ref [ 1; 3 ] in
  let variants = ref false in
  let allocations = ref false in
  let keys = ref false in
  let spec =
    [ ("--blocks", Arg.Set_int blocks, "N blocks per workload (default 2)")
    ; ( "--tlp"
      , Arg.String
          (fun s ->
             tlps := List.map int_of_string (String.split_on_char ',' s))
      , "T,T TLP limits to sweep (default 1,3)" )
    ; ( "--variants"
      , Arg.Set variants
      , " print the variant surface and its digest (ignores --blocks and --tlp)" )
    ; ( "--allocations"
      , Arg.Set allocations
      , " print the allocation surface and its digest (ignores --blocks and --tlp)" )
    ; ( "--launch-keys"
      , Arg.Set keys
      , " print the launch-key surface and its digest (ignores --blocks and --tlp)" )
    ]
  in
  Arg.parse spec (fun _ -> ())
    "bench/statdump.exe [--blocks N] [--tlp T,T] | --variants | --allocations \
     | --launch-keys";
  let module S = Testsupport.Surface in
  if !variants then begin
    let entries = S.variants () in
    List.iter (fun (name, st) -> pp_stats name st) entries;
    Printf.printf "digest %s\n" (S.digest entries)
  end
  else if !allocations || !keys then begin
    let entries = if !allocations then S.allocations () else S.launch_keys () in
    List.iter (fun (name, v) -> Printf.printf "%s %s\n" name v) entries;
    Printf.printf "digest %s\n" (S.digest entries)
  end
  else
    List.iter
      (fun (name, _, st) -> pp_stats name st)
      (S.statdump ~blocks:!blocks ~tlps:!tlps ())
