(* Trace-driven timing: the trace that the functional pass records
   must be exactly what the reference interpreter executes, the
   statistics of the statdump fingerprint surface are pinned, and the
   trace store must key launches correctly. *)

module G = Gpusim
module Refinterp = Testsupport.Refinterp

let fermi = G.Config.fermi
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Per block, per warp: the (pc, active mask, lane addresses) of every
   instruction the warp issues. *)
type steps = (int * int * int64 list) list array array

(* the reference: Refinterp under Simt.run_block *)
let refinterp_steps (l : G.Launch.t) : steps =
  let lctx = G.Simt.launch_ctx ~image:(G.Image.prepare l.G.Launch.kernel) l in
  Array.init l.G.Launch.num_blocks (fun ctaid ->
    let _, warps =
      Refinterp.make_block lctx ~ctaid ~warp_size:l.G.Launch.warp_size
    in
    let log = Array.make (List.length warps) [] in
    G.Simt.run_block ~is_done:Refinterp.is_done ~warps ~step:(fun w ->
      (* [peek] settles the pc first; [None] past the end of the code *)
      let issues = Refinterp.peek w <> None in
      let pc = Refinterp.pc w and mask = Refinterp.active_mask w in
      let exec = Refinterp.step w in
      let addrs =
        match exec with
        | Refinterp.E_mem { lane_addrs; _ } -> List.map snd lane_addrs
        | Refinterp.E_alu _ | Refinterp.E_barrier | Refinterp.E_exit -> []
      in
      let wid = Refinterp.warp_id w in
      if issues then log.(wid) <- (pc, mask, addrs) :: log.(wid);
      match exec with
      | Refinterp.E_barrier -> G.Simt.Barrier
      | Refinterp.E_exit -> G.Simt.Exit
      | Refinterp.E_alu _ | Refinterp.E_mem _ -> G.Simt.Step);
    Array.map List.rev log)

(* the recorder: Emulator.run ~record, read back through cursors *)
let recorded_steps (l : G.Launch.t) : steps =
  let tr = G.Replay.create l in
  ignore (G.Emulator.run ~record:tr l);
  let nwarps = l.G.Launch.block_size / l.G.Launch.warp_size in
  Array.init l.G.Launch.num_blocks (fun ctaid ->
    Array.init nwarps (fun wid ->
      let c = G.Replay.cursor tr ~ctaid ~wid in
      let rec go acc =
        if G.Replay.is_done c then List.rev acc
        else begin
          let pc = G.Replay.fetch c and mask = G.Replay.active_mask c in
          let addrs =
            match G.Replay.step c with
            | G.Dcode.E_mem _ -> List.init (G.Replay.mem_count c) (G.Replay.mem_addr c)
            | G.Dcode.E_alu _ | G.Dcode.E_barrier | G.Dcode.E_exit -> []
          in
          go ((pc, mask, addrs) :: acc)
        end
      in
      go []))

let trace_matches_refinterp l = recorded_steps l = refinterp_steps l

(* ---------- the fingerprint surfaces ---------- *)

(* The 88-config surface bench/statdump.exe prints: every workload,
   default and r20-allocated builds, TLP 1 and 3, 2 blocks. *)
let surface = lazy (Testsupport.Surface.statdump ())

(* A trace does not depend on the TLP, so each build is checked once. *)
let test_suite_traces_match_refinterp () =
  List.iter
    (fun (name, l, _) ->
       if l.G.Launch.tlp_limit = 1 then
         check (name ^ " trace matches Refinterp") true (trace_matches_refinterp l))
    (Lazy.force surface)

(* The model pin: the digest of the surface's cold statistics is the
   engine's model epoch, which every memo and store key folds in. *)
let test_model_epoch_pinned () =
  let cold = List.map (fun (_, _, st) -> st) (Lazy.force surface) in
  check_int "surface size" 88 (List.length cold);
  let d = Digest.to_hex (Digest.string (Marshal.to_string cold [])) in
  if d <> Crat.Engine.model_epoch then
    Alcotest.failf
      "the statdump surface moved: its digest is %s, but \
       Crat.Engine.model_epoch is %s. If the simulator or allocator change \
       is intended, set model_epoch in lib/core/engine.ml to %s; that \
       orphans every store entry of the old model."
      d Crat.Engine.model_epoch d

(* The variant pin: dynamic TLP, LRR, L1 bypass, Kepler, a Cycle_limit
   payload and two SMs, none of which the model epoch's surface runs.
   [bench/statdump.exe --variants] prints the entries behind it. *)
let variant_digest = "b6980f79d66179e7eeaa2c8bd4307cde"

let test_variant_surface_pinned () =
  let entries = Testsupport.Surface.variants () in
  check_int "variant surface size" 264 (List.length entries);
  let d = Testsupport.Surface.digest entries in
  if d <> variant_digest then
    Alcotest.failf
      "the variant surface moved: its digest is %s, pinned %s. Diff \
       bench/statdump.exe --variants against the parent build's to see \
       which configs moved; if the change is intended, pin %s here."
      d variant_digest d

(* The launch-key pin: every trace and statistic in a store is filed
   under a launch key, so a change to how launches are built or keyed
   must leave these keys alone, or a store written before it stops
   answering. [bench/statdump.exe --launch-keys] prints the entries. *)
let launch_key_digest = "8a7fc922f23f2832621ef9d9cd80d6a0"

let test_launch_keys_pinned () =
  let entries = Testsupport.Surface.launch_keys () in
  check_int "launch-key surface size" 66 (List.length entries);
  let d = Testsupport.Surface.digest entries in
  if d <> launch_key_digest then
    Alcotest.failf
      "the launch-key surface moved: its digest is %s, pinned %s. Diff \
       bench/statdump.exe --launch-keys against the parent build's to see \
       which launches moved; a stored trace or statistic of a moved launch \
       no longer answers. If that is intended, pin %s here."
      d launch_key_digest d

(* ---------- Stats conservation laws ---------- *)

(* Every scheduler slot of every cycle either issues or is charged to
   exactly one stall reason, each issue is one warp instruction, and a
   finished run completes every block. *)
let check_conserved name (l : G.Launch.t) (st : G.Stats.t) =
  let open G.Stats in
  check_int (name ^ ": issue_cycles = warp_instrs") st.warp_instrs st.issue_cycles;
  check_int
    (name ^ ": issue + stalls = cycles x schedulers")
    (st.cycles * fermi.G.Config.num_schedulers)
    (st.issue_cycles + st.stall_scoreboard + st.stall_mem_congestion
     + st.stall_barrier + st.stall_idle);
  check_int (name ^ ": blocks_completed = num_blocks") l.G.Launch.num_blocks
    st.blocks_completed

(* the statdump surface as it is (GTO, static TLP), then each build's
   trace replayed at TLP 1 and 3 under dynamic TLP and under LRR *)
let test_stats_conservation () =
  List.iter
    (fun (name, l, st) ->
       check_conserved name l st;
       if l.G.Launch.tlp_limit = 1 then begin
         let tr = Testsupport.Surface.record l in
         List.iter
           (fun tlp ->
              let lt = G.Launch.with_tlp l tlp in
              check_conserved
                (Printf.sprintf "%s dyn tlp%d" name tlp)
                lt
                (G.Sm.run ~dynamic_tlp:true ~replay:tr fermi lt);
              check_conserved
                (Printf.sprintf "%s lrr tlp%d" name tlp)
                lt
                (G.Sm.run ~scheduler:`Lrr ~replay:tr fermi lt))
           [ 1; 3 ]
       end)
    (Lazy.force surface)

(* ---------- the jumps against plain stepping ---------- *)

(* [Sm.run] jumps over cycles in which nothing can change (an empty
   LSU, or a head refused by a full L1 MSHR file). The reference here
   steps every cycle through [Sm.create]/[Sm.step], with its own block
   dispenser, and never jumps: the two must give equal [Stats.t]. *)
let stepped ?scheduler ?bypass_global ?dynamic_tlp tr (l : G.Launch.t) =
  let next = ref 0 in
  let next_block () =
    if !next >= l.G.Launch.num_blocks then None
    else begin
      incr next;
      Some (!next - 1)
    end
  in
  let sm =
    G.Sm.create ?scheduler ?bypass_global ?dynamic_tlp fermi (G.Sm.make_shared fermi)
      ~next_block tr l
  in
  while G.Sm.busy sm do
    G.Sm.step sm
  done;
  G.Sm.finalize sm

(* Every lane loads four global lines of its own per iteration, then
   stores four words of its local frame. Under [bypass_global] the loads
   go straight to the L2 and fill its MSHR file, while the local stores
   keep the L1's full: bypassing heads are refused by the L2 while the
   L1 would refuse an allocating one, which is where a jump must not
   start. *)
let congest_source =
  {|.entry congest (
  .param .u64 out
)
{
  .local .align 4 .b8 Buf[256];
  .reg .u32 %r0, %r1, %r2, %r3, %r4, %r5, %r6, %r7, %r8, %r9;
  .reg .u64 %d0, %d1, %d2;
  .reg .pred %p0;
  mov.u32 %r0, %tid.x;
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mad.lo.u32 %r3, %r1, %r2, %r0;
  mul.lo.u32 %r5, %r3, 128;
  cvt.u64.u32 %d1, %r5;
  ld.param.u64 %d0, [out];
  add.u64 %d0, %d0, %d1;
  mov.u64 %d2, Buf;
  mov.u32 %r4, 0;
Lloop:
  setp.ge.u32 %p0, %r4, 16;
  @%p0 bra Ldone;
  ld.global.u32 %r6, [%d0];
  add.u64 %d0, %d0, 1048576;
  ld.global.u32 %r7, [%d0];
  add.u64 %d0, %d0, 1048576;
  ld.global.u32 %r8, [%d0];
  add.u64 %d0, %d0, 1048576;
  ld.global.u32 %r9, [%d0];
  add.u64 %d0, %d0, 1048576;
  st.local.u32 [%d2], %r4;
  add.u64 %d2, %d2, 4;
  st.local.u32 [%d2], %r4;
  add.u64 %d2, %d2, 4;
  st.local.u32 [%d2], %r4;
  add.u64 %d2, %d2, 4;
  st.local.u32 [%d2], %r4;
  add.u64 %d2, %d2, 4;
  add.u32 %r4, %r4, 1;
  bra Lloop;
Ldone:
  ret;
}|}

let congest_launch () =
  G.Launch.make ~kernel:(Ptx.Parser.parse_kernel_exn congest_source)
    ~block_size:128 ~num_blocks:4
    ~params:[ ("out", G.Value.I 0x2000_0000L) ]
    (G.Memory.create ())

let test_jumps_match_stepping () =
  let congest = congest_launch () in
  let apps =
    List.map
      (fun abbr ->
         let app = Workloads.Suite.find abbr in
         ( abbr
         , Workloads.App.launch app ~input:(Workloads.App.default_input app) ()
         , [ 1; 4; 8 ] ))
      [ "HST"; "STM"; "BFS"; "PTF" ]
  in
  List.iter
    (fun (name, l, tlps) ->
       let tr = Testsupport.Surface.record l in
       List.iter
         (fun tlp ->
            let lt = G.Launch.with_tlp l tlp in
            List.iter
              (fun (variant, run, reference) ->
                 if run () <> reference () then
                   Alcotest.failf "%s tlp%d %s: Sm.run differs from stepping" name
                     tlp variant)
              [ ( "gto"
                , (fun () -> G.Sm.run ~replay:tr fermi lt)
                , fun () -> stepped tr lt )
              ; ( "lrr"
                , (fun () -> G.Sm.run ~scheduler:`Lrr ~replay:tr fermi lt)
                , fun () -> stepped ~scheduler:`Lrr tr lt )
              ; ( "bypass"
                , (fun () -> G.Sm.run ~bypass_global:true ~replay:tr fermi lt)
                , fun () -> stepped ~bypass_global:true tr lt )
              ; ( "dyn"
                , (fun () -> G.Sm.run ~dynamic_tlp:true ~replay:tr fermi lt)
                , fun () -> stepped ~dynamic_tlp:true tr lt )
              ])
         tlps)
    (apps @ [ ("congest", congest, [ 1; 2; 4 ]) ]);
  (* the congested launch still reaches both refusals *)
  let l = G.Launch.with_tlp congest 4 in
  let st =
    G.Sm.run ~bypass_global:true ~replay:(Testsupport.Surface.record l) fermi l
  in
  check "congest: the L2 refuses bypassing heads" true
    (st.G.Stats.l2.G.Cache.reserve_fails > 0);
  check "congest: the L1 MSHR file fills" true
    (st.G.Stats.l1.G.Cache.reserve_fails > 0)

(* the trace is config- and TLP-independent: record once under fermi,
   replay under kepler and at a different TLP; each must equal its own
   cold run *)
let test_trace_valid_across_config_and_tlp () =
  let app = Workloads.Suite.find "CFD" in
  let input =
    { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 }
  in
  let l = Workloads.App.launch app ~tlp:1 ~input () in
  let tr = G.Replay.create l in
  let _ = G.Sm.run ~record:tr fermi l in
  G.Replay.finish tr;
  List.iter
    (fun (name, cfg, tlp) ->
       let lt = G.Launch.with_tlp l tlp in
       let cold = G.Sm.run cfg lt in
       let replayed = G.Sm.run ~replay:tr cfg lt in
       check (name ^ " matches its cold run") true (cold = replayed))
    [ ("fermi tlp3", fermi, 3)
    ; ("kepler tlp1", G.Config.kepler, 1)
    ; ("kepler tlp2", G.Config.kepler, 2)
    ]

(* replay must not touch global memory *)
let test_replay_leaves_memory_untouched () =
  let app = Workloads.Suite.find "GAU" in
  let input =
    { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 }
  in
  let l = Workloads.App.launch app ~tlp:2 ~input () in
  let before = G.Memory.copy l.G.Launch.memory in
  let tr = G.Replay.create l in
  let _ = G.Sm.run ~record:tr fermi l in
  G.Replay.finish tr;
  let _ = G.Sm.run ~replay:tr fermi l in
  check "initial memory preserved through record+replay" true
    (G.Memory.equal before l.G.Launch.memory)

(* QCheck: random kernels through the same recorder-vs-reference
   check, reusing the fastpath harness generator *)
let prop_trace_random_kernels =
  QCheck.Test.make ~count:25 ~name:"recorded trace matches Refinterp on random kernels"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem = G.Memory.create () in
      G.Memory.write_f32_array mem ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:11 1024);
      let l =
        G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~tlp_limit:2
          ~params:
            [ ("inp", G.Value.I 0x1000_0000L)
            ; ("out", G.Value.I 0x2000_0000L)
            ; ("n", G.Value.of_int 1024)
            ]
          mem
      in
      trace_matches_refinterp l)

(* ---------- launch keys ---------- *)

(* the trace key must ignore what the trace does not depend on (timing
   config, TLP) and separate what it does (params, initial memory) *)
let test_launch_key_discrimination () =
  let mk ?(param = 0x1000_0000L) ?(seed = 3) () =
    let mem = G.Memory.create () in
    G.Memory.write_f32_array mem ~base:0x1000_0000L
      (Workloads.Data.uniform_f32 ~seed 64);
    let app = Workloads.Suite.find "GAU" in
    let input = Workloads.App.default_input app in
    G.Launch.make
      ~kernel:(Workloads.App.kernel app)
      ~block_size:app.Workloads.App.block_size
      ~num_blocks:input.Workloads.App.num_blocks
      ~params:[ ("inp", G.Value.I param) ]
      mem
  in
  let base = G.Replay.launch_key (mk ()) in
  check "structural: same launch content, same key" true
    (G.Replay.launch_key (mk ()) = base);
  check "TLP not in the key" true
    (G.Replay.launch_key (G.Launch.with_tlp (mk ()) 5) = base);
  check "params in the key" true
    (G.Replay.launch_key (mk ~param:0x2000_0000L ()) <> base);
  check "initial memory in the key" true
    (G.Replay.launch_key (mk ~seed:4 ()) <> base)

(* a written-then-zeroed slot must digest like an unwritten one only if
   the value genuinely reads back identically; integer zero does *)
let test_memory_digest_canonical () =
  let a = G.Memory.create () in
  let b = G.Memory.create () in
  G.Memory.write b 0x100L Ptx.Types.U32 (G.Value.of_int 0);
  check "writing integer zero keeps the canonical digest" true
    (G.Memory.digest a = G.Memory.digest b);
  G.Memory.write b 0x100L Ptx.Types.U32 (G.Value.of_int 7);
  check "a real write changes the digest" true
    (G.Memory.digest a <> G.Memory.digest b)

(* ---------- the store through the engine ---------- *)

let small_app abbr =
  let a = Workloads.Suite.find abbr in
  let i = Workloads.App.default_input a in
  { a with
    Workloads.App.inputs =
      [ { i with Workloads.App.num_blocks = 2; ilabel = "replay-small" } ]
  }

(* one launch, two configs: the engine records once and replays once,
   answering both from the same trace *)
let test_engine_records_once_per_launch () =
  let e = Crat.Engine.create () in
  let a = small_app "KMN" in
  let l = Workloads.App.launch a ~input:(Workloads.App.default_input a) () in
  let s_f = Crat.Engine.simulate e l fermi ~tlp:1 in
  let s_k = Crat.Engine.simulate e l G.Config.kepler ~tlp:1 in
  let rep = Crat.Engine.report e in
  check_int "two simulations ran" 2 rep.Crat.Engine.sim_runs;
  check_int "one trace recorded" 1 rep.Crat.Engine.trace_records;
  check_int "second config replayed" 1 rep.Crat.Engine.trace_replays;
  (* and each equals a replay-free engine's answer *)
  let e0 = Crat.Engine.create ~replay:false () in
  check "fermi stats match a no-replay engine" true
    (s_f = Crat.Engine.simulate e0 l fermi ~tlp:1);
  check "kepler stats match a no-replay engine" true
    (s_k = Crat.Engine.simulate e0 l G.Config.kepler ~tlp:1)

(* different params/memory are different launches: no trace sharing *)
let test_engine_separates_launches () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let i1 = Workloads.App.default_input a in
  let i2 = { i1 with Workloads.App.num_blocks = i1.Workloads.App.num_blocks + 1 } in
  let _ = Crat.Engine.simulate e (Workloads.App.launch a ~input:i1 ()) fermi ~tlp:1 in
  let _ = Crat.Engine.simulate e (Workloads.App.launch a ~input:i2 ()) fermi ~tlp:1 in
  let rep = Crat.Engine.report e in
  check_int "each distinct launch records its own trace" 2
    rep.Crat.Engine.trace_records;
  check_int "nothing replayed across distinct launches" 0
    rep.Crat.Engine.trace_replays

(* a budget too small for any trace degrades to cold-only, never wrong *)
let test_store_budget_eviction () =
  let e = Crat.Engine.create ~trace_budget:4 () in
  let a = small_app "GAU" in
  let l = Workloads.App.launch a ~input:(Workloads.App.default_input a) () in
  let s1 = Crat.Engine.simulate e l fermi ~tlp:1 in
  let s2 = Crat.Engine.simulate e l G.Config.kepler ~tlp:1 in
  let rep = Crat.Engine.report e in
  check_int "oversized trace never replayed" 0 rep.Crat.Engine.trace_replays;
  let e0 = Crat.Engine.create ~replay:false () in
  check "results still correct" true
    (s1 = Crat.Engine.simulate e0 l fermi ~tlp:1
     && s2 = Crat.Engine.simulate e0 l G.Config.kepler ~tlp:1)

let () =
  Alcotest.run "replay"
    [ ( "differential"
      , [ Alcotest.test_case "suite traces match Refinterp (22 apps x 2 builds)"
            `Slow test_suite_traces_match_refinterp
        ; Alcotest.test_case "model epoch pins the surface" `Slow
            test_model_epoch_pinned
        ; Alcotest.test_case "variant surface pinned" `Slow
            test_variant_surface_pinned
        ; Alcotest.test_case "launch keys pinned" `Quick test_launch_keys_pinned
        ; Alcotest.test_case "Stats conservation laws" `Slow
            test_stats_conservation
        ; Alcotest.test_case "Sm.run jumps match plain stepping" `Slow
            test_jumps_match_stepping
        ; Alcotest.test_case "trace valid across config and TLP" `Slow
            test_trace_valid_across_config_and_tlp
        ; Alcotest.test_case "replay leaves memory untouched" `Quick
            test_replay_leaves_memory_untouched
        ; QCheck_alcotest.to_alcotest prop_trace_random_kernels
        ] )
    ; ( "keys"
      , [ Alcotest.test_case "launch key discrimination" `Quick
            test_launch_key_discrimination
        ; Alcotest.test_case "memory digest canonical" `Quick
            test_memory_digest_canonical
        ] )
    ; ( "engine"
      , [ Alcotest.test_case "records once per launch" `Slow
            test_engine_records_once_per_launch
        ; Alcotest.test_case "separates distinct launches" `Slow
            test_engine_separates_launches
        ; Alcotest.test_case "tiny budget degrades to cold" `Slow
            test_store_budget_eviction
        ] )
    ]
