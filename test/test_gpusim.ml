(* Tests for the GPU simulator substrate: value arithmetic, the memory
   store, caches/MSHRs/DRAM, the occupancy calculator, kernel images,
   the SIMT interpreter, the reference emulator and the timing SM. *)

module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types
module G = Gpusim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- values ---------- *)

let test_value_masking () =
  let v = G.Value.truncate T.U32 (G.Value.I 0x1_FFFF_FFFFL) in
  check "u32 masks to 32 bits" true
    (Int64.equal (G.Value.to_int64 v) 0xFFFF_FFFFL);
  let s = G.Value.truncate T.S32 (G.Value.I 0xFFFF_FFFFL) in
  check "s32 sign extends" true (Int64.equal (G.Value.to_int64 s) (-1L))

let test_value_binops () =
  let i x = G.Value.I (Int64.of_int x) in
  check "u32 add wraps" true
    (Int64.equal
       (G.Value.to_int64 (G.Value.binop I.Add T.U32 (G.Value.I 0xFFFF_FFFFL) (i 1)))
       0L);
  check "s32 signed compare" true
    (G.Value.compare_values I.Lt T.S32 (G.Value.I 0xFFFF_FFFFL) (i 1));
  check "u32 unsigned compare" false
    (G.Value.compare_values I.Lt T.U32 (G.Value.I 0xFFFF_FFFFL) (i 1));
  check "div by zero yields zero" true
    (Int64.equal (G.Value.to_int64 (G.Value.binop I.Div T.U32 (i 5) (i 0))) 0L);
  check "shr logical for unsigned" true
    (Int64.equal
       (G.Value.to_int64 (G.Value.binop I.Shr T.U32 (G.Value.I 0x8000_0000L) (i 1)))
       0x4000_0000L);
  check "shr arithmetic for signed" true
    (Int64.equal
       (G.Value.to_int64 (G.Value.binop I.Shr T.S32 (G.Value.I 0xFFFF_FFFEL) (i 1)))
       (-1L))

let test_value_float () =
  let f x = G.Value.F x in
  check "f32 mad" true
    (G.Value.to_float (G.Value.mad T.F32 (f 2.) (f 3.) (f 1.)) = 7.);
  check "f32 rounding applied" true
    (G.Value.to_float (G.Value.truncate T.F32 (f 0.1)) <> 0.1);
  check "f64 keeps precision" true
    (G.Value.to_float (G.Value.truncate T.F64 (f 0.1)) = 0.1);
  check "sqrt" true (G.Value.to_float (G.Value.unop I.Sqrt T.F32 (f 4.)) = 2.)

let test_value_convert () =
  check "u32 -> f32" true
    (G.Value.to_float (G.Value.convert ~dst:T.F32 ~src:T.U32 (G.Value.I 7L)) = 7.);
  check "f32 -> u32 truncates toward zero" true
    (Int64.equal
       (G.Value.to_int64 (G.Value.convert ~dst:T.U32 ~src:T.F32 (G.Value.F 3.9)))
       3L);
  check "u32 -> u64 zero extends" true
    (Int64.equal
       (G.Value.to_int64
          (G.Value.convert ~dst:T.U64 ~src:T.U32 (G.Value.I 0xFFFF_FFFFL)))
       0xFFFF_FFFFL)

let prop_int_add_matches_reference =
  QCheck.Test.make ~count:200 ~name:"u32 arithmetic matches a reference model"
    QCheck.(pair int int)
    (fun (a, b) ->
       let open Int64 in
       let a64 = of_int a and b64 = of_int b in
       let got = G.Value.binop I.Add T.U32 (G.Value.I a64) (G.Value.I b64) in
       let expect = logand (add (logand a64 0xFFFFFFFFL) (logand b64 0xFFFFFFFFL)) 0xFFFFFFFFL in
       equal (G.Value.to_int64 got) expect)

(* ---------- memory ---------- *)

let test_memory_rw () =
  let m = G.Memory.create () in
  G.Memory.write m 100L T.F32 (G.Value.F 2.5);
  check "read back" true (G.Value.to_float (G.Memory.read m 100L T.F32) = 2.5);
  check "unwritten reads zero" true
    (G.Value.equal (G.Memory.read m 200L T.U32) G.Value.zero);
  let m2 = G.Memory.copy m in
  G.Memory.write m2 100L T.F32 (G.Value.F 9.0);
  check "copy is independent" true
    (G.Value.to_float (G.Memory.read m 100L T.F32) = 2.5)

let test_memory_arrays () =
  let m = G.Memory.create () in
  G.Memory.write_f32_array m ~base:0L [| 1.; 2.; 3. |];
  let back = G.Memory.read_f32_array m ~base:0L 3 in
  Alcotest.(check (list (float 0.0))) "round trip" [ 1.; 2.; 3. ] (Array.to_list back)

(* ---------- DRAM + cache ---------- *)

let test_dram_bandwidth_queue () =
  let d = G.Cache.Dram.create ~latency:100 ~bytes_per_cycle:16 in
  let t1 = G.Cache.Dram.request d ~cycle:0 ~bytes:128 in
  let t2 = G.Cache.Dram.request d ~cycle:0 ~bytes:128 in
  check_int "first: service 8 + latency 100" 108 t1;
  check_int "second queues behind the first" 116 t2;
  check_int "traffic recorded" 256 (G.Cache.Dram.traffic_bytes d)

(* A 64-byte-line test cache (8 sets of 2 ways at the defaults), and
   the line number of a byte address, which callers pass to
   [Cache.access]. [fills] lists the line numbers the next level was
   asked for, newest first. *)
let lineno addr = addr / 64

let make_test_cache ?(mshrs = 4) ?(assoc = 2) ?(bytes = 1024) () =
  let fills = ref [] in
  (* next level: fixed completion 500 cycles after request *)
  ( G.Cache.create ~name:"test" ~bytes ~assoc ~line:64 ~mshrs ~hit_latency:10
      ~next:(fun ~cycle ~lineno ->
        fills := lineno :: !fills;
        G.Cache.Miss (cycle + 500))
  , fills )

let read c ~cycle addr =
  G.Cache.access c ~cycle ~lineno:(lineno addr) ~write:false ~write_alloc:true

let test_cache_hit_after_fill () =
  let c, fills = make_test_cache () in
  (match read c ~cycle:0 0 with
   | G.Cache.Miss t -> check_int "miss completes via next level" 500 t
   | _ -> Alcotest.fail "expected miss");
  (match read c ~cycle:10 8 with
   | G.Cache.Miss t -> check_int "merged into in-flight line" 500 t
   | _ -> Alcotest.fail "expected merged miss");
  (match read c ~cycle:600 16 with
   | G.Cache.Hit -> ()
   | _ -> Alcotest.fail "expected hit");
  let st = G.Cache.stats c in
  check_int "three reads" 3 st.G.Cache.reads;
  check_int "one read hit" 1 st.G.Cache.read_hits;
  Alcotest.(check (list int)) "one fill, of line 0" [ 0 ] !fills

let test_cache_lru_eviction () =
  let c, fills = make_test_cache () in
  let touch cycle addr = ignore (read c ~cycle addr) in
  (* lines 0, 8 and 16: all in set 0 of 8 *)
  touch 0 0;
  touch 1 512;
  touch 700 0;
  touch 710 1024;
  Alcotest.(check (list int)) "the next level sees line numbers" [ 16; 8; 0 ] !fills;
  (match read c ~cycle:1500 0 with
   | G.Cache.Hit -> ()
   | _ -> Alcotest.fail "line 0 must survive");
  match read c ~cycle:1500 512 with
  | G.Cache.Hit -> Alcotest.fail "line 512 must have been evicted"
  | G.Cache.Miss _ | G.Cache.Reserve_fail -> ()

let test_cache_mshr_exhaustion () =
  let c, _ = make_test_cache ~mshrs:2 () in
  let miss cycle addr = read c ~cycle addr in
  (match miss 0 0 with G.Cache.Miss _ -> () | _ -> Alcotest.fail "m1");
  (match miss 0 64 with G.Cache.Miss _ -> () | _ -> Alcotest.fail "m2");
  (match miss 0 128 with
   | G.Cache.Reserve_fail -> ()
   | _ -> Alcotest.fail "third miss must fail reservation");
  check_int "reserve fail counted" 1 (G.Cache.stats c).G.Cache.reserve_fails;
  match miss 600 128 with
  | G.Cache.Miss _ -> ()
  | _ -> Alcotest.fail "MSHRs must drain"

let test_cache_write_through_no_alloc () =
  let c, _ = make_test_cache () in
  (match G.Cache.access c ~cycle:0 ~lineno:(lineno 0) ~write:true ~write_alloc:false with
   | G.Cache.Miss _ -> ()
   | _ -> Alcotest.fail "write miss passes through");
  match read c ~cycle:600 0 with
  | G.Cache.Miss _ -> ()
  | _ -> Alcotest.fail "no-allocate must not install the line"

let test_cache_writeback_dirty () =
  let c, _ = make_test_cache () in
  let touch cycle addr write =
    ignore (G.Cache.access c ~cycle ~lineno:(lineno addr) ~write ~write_alloc:true)
  in
  touch 0 0 true;
  touch 600 512 false;
  touch 1200 1024 false;
  touch 1800 1536 false;
  check "writeback happened" true ((G.Cache.stats c).G.Cache.writebacks >= 1)

(* ---------- occupancy ---------- *)

let fermi = G.Config.fermi

let usage ?(sregs = 0) ?(shm = 0) ~regs ~block () =
  { G.Occupancy.regs_per_thread = regs
  ; sregs_per_warp = sregs
  ; block_size = block
  ; shared_per_block = shm
  }

let test_occupancy_paper_example () =
  check_int "MinReg" 21 (G.Config.min_reg fermi);
  check_int "register-limited TLP" 5
    (G.Occupancy.max_tlp fermi (usage ~regs:48 ~block:128 ()));
  check_int "thread-limited TLP" 8
    (G.Occupancy.max_tlp fermi (usage ~regs:16 ~block:128 ()));
  check_int "shared-limited TLP" 4
    (G.Occupancy.max_tlp fermi (usage ~regs:16 ~block:128 ~shm:(12 * 1024) ()))

let test_occupancy_utilization () =
  let u = usage ~regs:32 ~block:128 () in
  let util = G.Occupancy.register_utilization fermi u ~tlp:8 in
  check "32x128x8 = full file" true (Float.abs (util -. 1.0) < 0.01);
  check_int "spare shared at tlp 4" (12 * 1024)
    (G.Occupancy.spare_shared_bytes fermi u ~tlp:4)

let limit_str u = G.Occupancy.limit_to_string (G.Occupancy.limiting_resource fermi u)

let test_limiting_resource () =
  Alcotest.(check string) "registers bind" "registers"
    (limit_str (usage ~regs:63 ~block:256 ()));
  Alcotest.(check string) "threads bind" "threads"
    (limit_str (usage ~regs:16 ~block:192 ()));
  Alcotest.(check string) "scalar registers bind" "scalar registers"
    (limit_str (usage ~regs:16 ~sregs:128 ~block:128 ()));
  Alcotest.(check string) "block slots bind" "thread blocks"
    (limit_str (usage ~regs:1 ~block:64 ()))

(* a kernel using no registers at all is limited by slots, never by the
   register file (the divide-by-zero edge) *)
let test_occupancy_zero_registers () =
  let u = usage ~regs:0 ~block:128 () in
  check_int "zero-register kernel hits the block cap"
    fermi.G.Config.max_blocks_per_sm
    (G.Occupancy.max_tlp fermi u);
  Alcotest.(check string) "zero-register limit" "thread blocks" (limit_str u);
  let us = usage ~regs:0 ~sregs:0 ~block:192 () in
  check_int "block slots still apply" 8 (G.Occupancy.max_tlp fermi us)

(* walking shared-memory usage up at fixed registers crosses from
   register-limited to shared-limited exactly when the shared constraint
   becomes the binding minimum *)
let test_occupancy_reg_shm_crossover () =
  let regs = 48 and block = 128 in
  (* register-limited at 5 blocks; shared crosses below at > 9830B *)
  Alcotest.(check string) "small shm: registers bind" "registers"
    (limit_str (usage ~regs ~block ~shm:(8 * 1024) ()));
  Alcotest.(check string) "large shm: shared binds" "shared memory"
    (limit_str (usage ~regs ~block ~shm:(12 * 1024) ()));
  check_int "crossover lowers TLP" 4
    (G.Occupancy.max_tlp fermi (usage ~regs ~block ~shm:(12 * 1024) ()))

(* property: limiting_resource is consistent with max_tlp — running one
   more block than max_tlp must violate exactly the reported dimension *)
let occupancy_consistency =
  QCheck.Test.make ~count:500
    ~name:"limiting_resource consistent with max_tlp"
    QCheck.(
      quad (int_range 0 64) (int_range 0 256) (int_range 1 8)
        (int_range 0 (50 * 1024)))
    (fun (regs, sregs, warps, shm) ->
       let block = warps * fermi.G.Config.warp_size in
       let u = usage ~regs ~sregs ~block ~shm () in
       let tlp = G.Occupancy.max_tlp fermi u in
       let next = tlp + 1 in
       let fits_threads = next * block <= fermi.G.Config.max_threads_per_sm in
       let fits_blocks = next <= fermi.G.Config.max_blocks_per_sm in
       let fits_regs =
         next * regs * block <= G.Config.registers_per_sm fermi
       in
       let fits_sregs = next * sregs * warps <= fermi.G.Config.scalar_regs_per_sm in
       let fits_shm = next * shm <= fermi.G.Config.shared_bytes_per_sm in
       (* max_tlp is maximal: one more block breaks something *)
       let maximal =
         not (fits_threads && fits_blocks && fits_regs && fits_sregs && fits_shm)
       in
       (* and the reported limit is a dimension that actually breaks *)
       let reported_breaks =
         match G.Occupancy.limiting_resource fermi u with
         | G.Occupancy.Thread_slots -> not fits_threads
         | G.Occupancy.Block_slots -> not fits_blocks
         | G.Occupancy.Registers `Vector -> not fits_regs
         | G.Occupancy.Registers `Scalar -> not fits_sregs
         | G.Occupancy.Shared_memory -> not fits_shm
       in
       maximal && reported_breaks)

(* ---------- image ---------- *)

let test_image_layout () =
  let b = B.create "img" in
  let _ = B.param b "out" T.U64 in
  let _ = B.decl_shared b "a" T.F32 16 in
  let _ = B.decl_shared b "bb" T.F64 4 in
  let _ = B.decl_local b "l" T.U32 8 in
  ignore (B.mov b T.U32 (B.imm 0));
  let k = B.finish b in
  let img = G.Image.prepare k in
  check_int "shared a at 0" 0 (G.Image.shared_offset img "a");
  check_int "shared b aligned to 8" 64 (G.Image.shared_offset img "bb");
  check_int "shared total" 96 img.G.Image.shared_decl_bytes;
  check_int "local frame" 32 img.G.Image.local_frame_bytes

let test_local_interleaving_coalesces () =
  let b = B.create "img2" in
  let _ = B.param b "out" T.U64 in
  let _ = B.decl_local b "l" T.U32 8 in
  ignore (B.mov b T.U32 (B.imm 0));
  let k = B.finish b in
  let img = G.Image.prepare k in
  let a0 = G.Image.remap_local img ~global_tid:0 (G.Image.local_addr img ~global_tid:0 ~sym_offset:0) in
  let a1 = G.Image.remap_local img ~global_tid:1 (G.Image.local_addr img ~global_tid:1 ~sym_offset:0) in
  check "consecutive threads 4B apart" true (Int64.sub a1 a0 = 4L);
  let b0 = G.Image.remap_local img ~global_tid:0 (G.Image.local_addr img ~global_tid:0 ~sym_offset:4) in
  check "slots distinct" true (not (Int64.equal b0 a1))

(* ---------- interp: divergence & barriers ---------- *)

let divergent_kernel () =
  let b = B.create "div" in
  let out = B.param b "out" T.U64 in
  let tid = B.special b Ptx.Reg.Tid_x in
  let bit = B.binop b I.And T.U32 (B.reg tid) (B.imm 1) in
  let p = B.setp b I.Eq T.U32 (B.reg bit) (B.imm 1) in
  let v = B.mov b T.U32 (B.imm 10) in
  let skip = B.fresh_label b "Ls" in
  B.bra_ifnot b p skip;
  B.acc_binop b I.Add T.U32 v (B.imm 5);
  B.label b skip;
  let base = B.ld_param b T.U64 out in
  let byte = B.mul b T.U32 (B.reg tid) (B.imm 4) in
  let o = B.cvt b T.U64 T.U32 (B.reg byte) in
  let addr = B.add b T.U64 (B.reg base) (B.reg o) in
  B.st b T.Global T.U32 (B.reg addr) 0 (B.reg v);
  B.finish b

let test_simt_divergence () =
  let k = divergent_kernel () in
  let mem = G.Memory.create () in
  let launch =
    G.Launch.make ~kernel:k ~block_size:32 ~num_blocks:1
      ~params:[ ("out", G.Value.I 0L) ] mem
  in
  let out = G.Memory.read_u32_array (G.Emulator.run launch) ~base:0L 32 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "lane %d" i) (if i land 1 = 1 then 15 else 10) v)
    out

let test_divergence_stack_mechanics () =
  let k = divergent_kernel () in
  let image = G.Image.prepare k in
  let lctx =
    { G.Interp.image
    ; global = G.Memory.create ()
    ; params = [ ("out", G.Value.I 0L) ]
    ; block_size = 32
    ; num_blocks = 1; san = None
    }
  in
  let _, warps = G.Interp.make_block lctx ~ctaid:0 ~warp_size:32 in
  let w = List.hd warps in
  check_int "full mask initially" ((1 lsl 32) - 1) (G.Interp.active_mask w);
  let saw_partial = ref false in
  while not (G.Interp.is_done w) do
    ignore (G.Interp.step w);
    if
      (not (G.Interp.is_done w))
      && G.Interp.popcount (G.Interp.active_mask w) < 32
    then saw_partial := true
  done;
  check "divergence observed" true !saw_partial

let barrier_kernel ?(early_exit = false) () =
  (* lane 0 of each warp publishes a value in shared memory; after the
     barrier every thread of the block reads its warp's slot. With
     [early_exit], warp 1 instead stores 200 + wid and returns before
     the barrier, which warp 0 then waits at alone. *)
  let b = B.create "barrier" in
  let out = B.param b "out" T.U64 in
  let sdata = B.decl_shared b "sdata" T.U32 8 in
  let tid = B.special b Ptx.Reg.Tid_x in
  let sbase = B.mov b T.U32 sdata in
  let lane = B.binop b I.And T.U32 (B.reg tid) (B.imm 31) in
  let wid = B.binop b I.Shr T.U32 (B.reg tid) (B.imm 5) in
  let store_out v =
    let base = B.ld_param b T.U64 out in
    let byte = B.mul b T.U32 (B.reg tid) (B.imm 4) in
    let o = B.cvt b T.U64 T.U32 (B.reg byte) in
    let addr = B.add b T.U64 (B.reg base) (B.reg o) in
    B.st b T.Global T.U32 (B.reg addr) 0 (B.reg v)
  in
  if early_exit then begin
    let p1 = B.setp b I.Eq T.U32 (B.reg wid) (B.imm 1) in
    let stay = B.fresh_label b "Lstay" in
    B.bra_ifnot b p1 stay;
    store_out (B.add b T.U32 (B.reg wid) (B.imm 200));
    B.ret b;
    B.label b stay
  end;
  let p0 = B.setp b I.Eq T.U32 (B.reg lane) (B.imm 0) in
  let skip = B.fresh_label b "Lw" in
  B.bra_ifnot b p0 skip;
  let wb = B.mul b T.U32 (B.reg wid) (B.imm 4) in
  let wa = B.add b T.U32 (B.reg sbase) (B.reg wb) in
  let v = B.add b T.U32 (B.reg wid) (B.imm 100) in
  B.st b T.Shared T.U32 (B.reg wa) 0 (B.reg v);
  B.label b skip;
  B.bar_sync b;
  let rb = B.mul b T.U32 (B.reg wid) (B.imm 4) in
  let ra = B.add b T.U32 (B.reg sbase) (B.reg rb) in
  store_out (B.ld b T.Shared T.U32 (B.reg ra) 0);
  B.finish b

let test_barrier_communication_emulator () =
  let k = barrier_kernel () in
  let mem =
    G.Emulator.run
      (G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:1
         ~params:[ ("out", G.Value.I 0L) ] (G.Memory.create ()))
  in
  let out = G.Memory.read_u32_array mem ~base:0L 64 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "t%d" i) (100 + (i / 32)) v)
    out

(* What a timing run computes: [Sm.run]'s functional pass is the
   recording emulator, and the timing model replays the trace it
   records. The memory that pass returns, and the finished trace. *)
let recorded l =
  let tr = G.Replay.create l in
  let mem = G.Emulator.run ~record:tr l in
  G.Replay.finish tr;
  (mem, tr)

let test_barrier_communication_sm () =
  let k = barrier_kernel () in
  let l =
    G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:3 ~tlp_limit:2
      ~params:[ ("out", G.Value.I 0L) ] (G.Memory.create ())
  in
  let mem, tr = recorded l in
  let st = G.Sm.run ~replay:tr fermi l in
  let out = G.Memory.read_u32_array mem ~base:0L 64 in
  Array.iteri (fun i v -> check_int (Printf.sprintf "t%d" i) (100 + (i / 32)) v) out;
  check_int "blocks completed" 3 st.G.Stats.blocks_completed

(* Every client of the shared block scheduler (Simt.run_block) must
   return the same memory at a barrier, and Sm's own scheduler must
   finish every block — also when warp 1 exits before the barrier warp 0
   waits at, so the barrier is released by the warps still live. *)
let test_barrier_every_scheduler () =
  List.iter
    (fun early_exit ->
       let name s = Printf.sprintf "%s%s" s (if early_exit then " (early exit)" else "") in
       let k = barrier_kernel ~early_exit () in
       let launch () =
         G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:3 ~tlp_limit:2
           ~params:[ ("out", G.Value.I 0L) ] (G.Memory.create ())
       in
       let run f = f (launch ()) in
       let alloc =
         Regalloc.Allocator.allocate
           ~scalar:(Machine.Scalarize.predicate ~block_size:64 k)
           ~scalar_limit:Machine.Backend.default_scalar_limit ~block_size:64
           ~reg_limit:24 k
       in
       let m = Machine.Lower.run alloc in
       let expected = run G.Emulator.run in
       let out = G.Memory.read_u32_array expected ~base:0L 64 in
       Array.iteri
         (fun i v ->
            let want = if early_exit && i >= 32 then 201 else 100 + (i / 32) in
            check_int (name (Printf.sprintf "t%d" i)) want v)
         out;
       List.iter
         (fun (client, f) ->
            check (name (client ^ " matches Emulator")) true
              (G.Memory.equal expected (run f)))
         [ ("Refinterp", fun l -> Testsupport.Refinterp.run l)
         ; ("Machine.Exec", Machine.Exec.run m)
         ];
       check_int (name "Sm completes every block") 3
         (G.Sm.run fermi (launch ())).G.Stats.blocks_completed;
       (* the traced warp passes the barrier and logs the shared read *)
       let warp = if early_exit then 0 else 1 in
       let rec after_barrier = function
         | { G.Trace.instr = I.Bar_sync; _ } :: rest ->
           List.exists
             (fun e ->
                match e.G.Trace.instr with
                | I.Ld (T.Shared, _, _, _) -> true
                | _ -> false)
             rest
         | _ :: rest -> after_barrier rest
         | [] -> false
       in
       check (name "trace logs the post-barrier ld.shared") true
         (after_barrier (G.Trace.warp_trace ~ctaid:0 ~warp (launch ()))))
    [ false; true ]

(* ---------- coalescing ---------- *)

(* 32 lanes reading consecutive f32s -> 1 segment; stride-128B reads ->
   one segment per lane *)
let coalesce_kernel ~stride_words =
  let b = B.create "coal" in
  let inp = B.param b "inp" T.U64 in
  let out = B.param b "out" T.U64 in
  let tid = B.special b Ptx.Reg.Tid_x in
  let base = B.ld_param b T.U64 inp in
  let idx = B.mul b T.U32 (B.reg tid) (B.imm (stride_words * 4)) in
  let o = B.cvt b T.U64 T.U32 (B.reg idx) in
  let addr = B.add b T.U64 (B.reg base) (B.reg o) in
  let v = B.ld b T.Global T.F32 (B.reg addr) 0 in
  let ob = B.ld_param b T.U64 out in
  let ob' = B.add b T.U64 (B.reg ob) (B.reg o) in
  B.st b T.Global T.F32 (B.reg ob') 0 (B.reg v);
  B.finish b

let run_coalesce k =
  let mem = G.Memory.create () in
  G.Sm.run fermi
    (G.Launch.make ~kernel:k ~block_size:32 ~num_blocks:1
       ~params:[ ("inp", G.Value.I 0x1000L); ("out", G.Value.I 0x80000L) ]
       mem)

let test_coalescing_segments () =
  let unit = run_coalesce (coalesce_kernel ~stride_words:1) in
  let strided = run_coalesce (coalesce_kernel ~stride_words:32) in
  (* unit stride: 1 load segment + 1 store segment *)
  check_int "unit stride coalesces" 2 unit.G.Stats.global_segments;
  (* 128B stride: every lane its own line, load + store *)
  check_int "full stride splits per lane" 64 strided.G.Stats.global_segments;
  check "stride costs cycles" true (strided.G.Stats.cycles > unit.G.Stats.cycles)

(* ---------- shared-memory bank conflicts ---------- *)

(* each lane reads shared[f(lane)]: stride 1 word -> conflict-free;
   stride = bank-count words -> full serialisation *)
let bank_kernel ~stride_words =
  let b = B.create "banks" in
  let out = B.param b "out" T.U64 in
  let sdata = B.decl_shared b "sdata" T.U32 (32 * stride_words) in
  let tid = B.special b Ptx.Reg.Tid_x in
  let sbase = B.mov b T.U32 sdata in
  let idx = B.mul b T.U32 (B.reg tid) (B.imm (stride_words * 4)) in
  let sa = B.add b T.U32 (B.reg sbase) (B.reg idx) in
  B.st b T.Shared T.U32 (B.reg sa) 0 (B.reg tid);
  let acc = B.mov b T.U32 (B.imm 0) in
  B.for_loop b ~from:(B.imm 0) ~below:(B.imm 16) ~step:1 (fun _ ->
    let v = B.ld b T.Shared T.U32 (B.reg sa) 0 in
    B.acc_binop b I.Add T.U32 acc (B.reg v));
  let base = B.ld_param b T.U64 out in
  let byte = B.mul b T.U32 (B.reg tid) (B.imm 4) in
  let o = B.cvt b T.U64 T.U32 (B.reg byte) in
  let addr = B.add b T.U64 (B.reg base) (B.reg o) in
  B.st b T.Global T.U32 (B.reg addr) 0 (B.reg acc);
  B.finish b

let run_bank_kernel k =
  let mem = G.Memory.create () in
  G.Sm.run fermi
    (G.Launch.make ~kernel:k ~block_size:32 ~num_blocks:1
       ~params:[ ("out", G.Value.I 0L) ] mem)

let test_bank_conflicts_detected () =
  let clean = run_bank_kernel (bank_kernel ~stride_words:1) in
  let conflicted = run_bank_kernel (bank_kernel ~stride_words:32) in
  check_int "stride 1 is conflict-free" 0 clean.G.Stats.shared_bank_conflicts;
  check "stride 32 serialises" true
    (conflicted.G.Stats.shared_bank_conflicts > 100);
  check "conflicts cost cycles" true
    (conflicted.G.Stats.cycles > clean.G.Stats.cycles)

let test_spill_layout_padding () =
  (* two 4-byte shared slots would give an 8-byte (even-word) stride:
     layout must pad it to an odd word count *)
  let regs = [ Ptx.Reg.make 0 T.F32; Ptx.Reg.make 1 T.U32 ] in
  let spec = Regalloc.Spill.layout ~to_shared:(fun _ -> true) regs in
  check "odd word stride" true
    (spec.Regalloc.Spill.shared_bytes_per_thread / 4 mod 2 = 1)

(* ---------- timing sim ---------- *)

let test_sm_matches_emulator () =
  let app = Workloads.Suite.find "PATH" in
  let k = Workloads.App.kernel app in
  let input =
    { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 }
  in
  let m_ref =
    G.Emulator.run
      (G.Launch.make ~kernel:k ~block_size:app.Workloads.App.block_size
         ~num_blocks:2 ~params:(Workloads.App.params app input)
         (Workloads.App.memory app input))
  in
  let launch = Workloads.App.launch app ~tlp:2 ~input () in
  let mem, tr = recorded launch in
  check "timing sim times its recorded pass" true
    (G.Sm.run ~replay:tr fermi launch = G.Sm.run fermi launch);
  let n = Workloads.App.output_words app input in
  let a = G.Memory.read_f32_array m_ref ~base:Workloads.Data.out_base n in
  let b' = G.Memory.read_f32_array mem ~base:Workloads.Data.out_base n in
  check "timing sim computes the same outputs" true (Testsupport.Gen.outputs_equal a b')

let test_sm_deterministic () =
  let app = Workloads.Suite.find "GAU" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 } in
  let run () = (G.Sm.run fermi (Workloads.App.launch app ~tlp:2 ~input ())).G.Stats.cycles in
  check_int "same cycles on repeat" (run ()) (run ())

let test_sm_tlp_limit_respected () =
  let app = Workloads.Suite.find "GAU" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 6 } in
  let st = G.Sm.run fermi (Workloads.App.launch app ~tlp:2 ~input ()) in
  check "never more than 2 blocks" true (st.G.Stats.max_concurrent_blocks <= 2);
  check_int "all blocks ran" 6 st.G.Stats.blocks_completed

let test_sm_more_tlp_not_slower_for_insensitive () =
  let app = Workloads.Suite.find "GAU" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 4 } in
  let c tlp = (G.Sm.run fermi (Workloads.App.launch app ~tlp ~input ())).G.Stats.cycles in
  check "tlp 4 at least as fast as tlp 1 on a light kernel" true (c 4 <= c 1)

let test_sm_gto_vs_lrr () =
  let app = Workloads.Suite.find "PATH" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 } in
  let gto = G.Sm.run ~scheduler:`Gto fermi (Workloads.App.launch app ~tlp:2 ~input ()) in
  let lrr = G.Sm.run ~scheduler:`Lrr fermi (Workloads.App.launch app ~tlp:2 ~input ()) in
  check_int "same instructions" gto.G.Stats.warp_instrs lrr.G.Stats.warp_instrs

let test_cycle_limit_raised () =
  let app = Workloads.Suite.find "PATH" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 } in
  try
    let _ = G.Sm.run ~max_cycles:10 fermi (Workloads.App.launch app ~tlp:1 ~input ()) in
    Alcotest.fail "must raise Cycle_limit"
  with G.Sm.Cycle_limit _ -> ()

(* A kernel that never exits: the functional pass in front of the
   timing model must stop on its own and say so, and both drivers must
   report the cycle limit rather than hang. *)
let test_cycle_limit_on_endless_kernel () =
  let b = B.create "spin" in
  let r = B.mov b T.U32 (B.imm 0) in
  B.label b "spin";
  B.acc_binop b I.Add T.U32 r (B.imm 1);
  B.bra b "spin";
  B.ret b;
  let launch () =
    G.Launch.make ~kernel:(B.finish b) ~block_size:64 ~num_blocks:2 ~tlp_limit:2
      (G.Memory.create ())
  in
  (match G.Emulator.run ~max_warp_instrs:1000 (launch ()) with
   | _ -> Alcotest.fail "Emulator.run must raise Over_budget"
   | exception G.Simt.Over_budget -> ());
  (match G.Sm.run ~max_cycles:1000 fermi (launch ()) with
   | _ -> Alcotest.fail "Sm.run must raise Cycle_limit"
   | exception G.Sm.Cycle_limit st ->
     check_int "Sm stopped at the limit" 1001 st.G.Stats.cycles);
  match G.Gpu.run ~sms:2 ~max_cycles:1000 fermi (launch ()) with
  | _ -> Alcotest.fail "Gpu.run must raise Cycle_limit"
  | exception G.Gpu.Cycle_limit r ->
    check_int "Gpu stopped at the limit" 1001 r.G.Gpu.total_cycles

let prop_emulator_vs_sm =
  QCheck.Test.make ~count:15 ~name:"timing sim output equals emulator output"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem = G.Memory.create () in
      G.Memory.write_f32_array mem ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:5 1024);
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      let mem1 =
        G.Emulator.run (G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~params mem)
      in
      let l = G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~tlp_limit:2 ~params mem in
      let mem2, tr = recorded l in
      G.Sm.run ~replay:tr fermi l = G.Sm.run fermi l
      && Testsupport.Gen.outputs_equal
        (G.Memory.read_f32_array mem1 ~base:0x2000_0000L 128)
        (G.Memory.read_f32_array mem2 ~base:0x2000_0000L 128))

(* ---------- dynamic throttling ---------- *)

let test_dynamic_tlp_correct () =
  let app = Workloads.Suite.find "KMN" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 4 } in
  let k = Workloads.App.kernel app in
  let m_ref =
    G.Emulator.run
      (G.Launch.make ~kernel:k ~block_size:app.Workloads.App.block_size
         ~num_blocks:4 ~params:(Workloads.App.params app input)
         (Workloads.App.memory app input))
  in
  let launch = Workloads.App.launch app ~tlp:4 ~input () in
  let mem, tr = recorded launch in
  let st = G.Sm.run ~dynamic_tlp:true ~replay:tr fermi launch in
  check_int "all blocks completed despite pausing" 4 st.G.Stats.blocks_completed;
  let n = Workloads.App.output_words app input in
  check "outputs unaffected by throttling" true
    (Testsupport.Gen.outputs_equal
       (G.Memory.read_f32_array m_ref ~base:Workloads.Data.out_base n)
       (G.Memory.read_f32_array mem ~base:Workloads.Data.out_base n))

let test_dynamic_tlp_helps_thrashing () =
  let app = Workloads.Suite.find "KMN" in
  let input = Workloads.App.default_input app in
  let run dyn =
    (G.Sm.run ~dynamic_tlp:dyn fermi (Workloads.App.launch app ~tlp:5 ~input ()))
      .G.Stats.cycles
  in
  check "throttling helps the thrashing kernel" true (run true < run false)

(* A paused block's warps are not scheduled, its greedy warp included:
   under GTO, KMN at TLP 5 pauses blocks, and a paused greedy warp that
   kept issuing ran it for 158,095 cycles instead of 144,934. *)
let test_dynamic_tlp_pauses_greedy_warp () =
  let app = Workloads.Suite.find "KMN" in
  let input = Workloads.App.default_input app in
  let st =
    G.Sm.run ~dynamic_tlp:true fermi (Workloads.App.launch app ~tlp:5 ~input ())
  in
  check_int "KMN tlp5 dynamic cycles" 144_934 st.G.Stats.cycles

(* ---------- multi-SM ---------- *)

let test_gpu_multi_sm_correct () =
  let app = Workloads.Suite.find "GAU" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 8 } in
  let k = Workloads.App.kernel app in
  (* reference: emulator over all 8 blocks *)
  let m_ref =
    G.Emulator.run
      (G.Launch.make ~kernel:k ~block_size:app.Workloads.App.block_size
         ~num_blocks:8 ~params:(Workloads.App.params app input)
         (Workloads.App.memory app input))
  in
  let l =
    G.Launch.make ~kernel:k ~block_size:app.Workloads.App.block_size
      ~num_blocks:8 ~params:(Workloads.App.params app input)
      (Workloads.App.memory app input)
  in
  let r = G.Gpu.run ~sms:4 fermi l in
  (* the multi-SM run times the trace of the same recording pass *)
  let mem, _ = recorded l in
  let n = Workloads.App.output_words app input in
  check "multi-SM outputs match the emulator" true
    (Testsupport.Gen.outputs_equal
       (G.Memory.read_f32_array m_ref ~base:Workloads.Data.out_base n)
       (G.Memory.read_f32_array mem ~base:Workloads.Data.out_base n));
  check_int "all blocks ran once" 8
    (Array.fold_left (fun acc s -> acc + s.G.Stats.blocks_completed) 0 r.G.Gpu.per_sm);
  check_int "every warp instruction timed once" (G.Sm.run fermi l).G.Stats.warp_instrs
    (Array.fold_left (fun acc s -> acc + s.G.Stats.warp_instrs) 0 r.G.Gpu.per_sm)

let test_gpu_scaling () =
  let app = Workloads.Suite.find "GAU" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 8 } in
  let k = Workloads.App.kernel app in
  let cycles sms =
    let mem = Workloads.App.memory app input in
    (G.Gpu.run ~sms fermi
       (G.Launch.make ~kernel:k ~block_size:app.Workloads.App.block_size
          ~num_blocks:8 ~tlp_limit:2
          ~params:(Workloads.App.params app input) mem))
      .G.Gpu.total_cycles
  in
  check "4 SMs at least as fast as 1" true (cycles 4 <= cycles 1)

let test_gpu_deterministic () =
  let app = Workloads.Suite.find "PATH" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 6 } in
  let run () =
    let mem = Workloads.App.memory app input in
    (G.Gpu.run ~sms:3 fermi
       (G.Launch.make ~kernel:(Workloads.App.kernel app)
          ~block_size:app.Workloads.App.block_size ~num_blocks:6
          ~params:(Workloads.App.params app input) mem))
      .G.Gpu.total_cycles
  in
  check_int "deterministic across runs" (run ()) (run ())

(* ---------- trace ---------- *)

let test_trace_records_execution () =
  let app = Workloads.Suite.find "GAU" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 1 } in
  let entries =
    G.Trace.warp_trace ~max_steps:50 ~ctaid:0 ~warp:0
      (Workloads.App.launch app ~input ())
  in
  check_int "capped at max_steps" 50 (List.length entries);
  let first = List.hd entries in
  check_int "starts at pc 0" 0 first.G.Trace.pc;
  check "full mask at entry" true (first.G.Trace.mask = (1 lsl 32) - 1);
  (* pc strictly increases through the straight-line prologue *)
  let rec prologue_ordered = function
    | a :: b :: rest when b.G.Trace.pc = a.G.Trace.pc + 1 ->
      prologue_ordered (b :: rest)
    | _ -> true
  in
  check "prologue in order" true (prologue_ordered entries)

(* GAU's default launch has 8 blocks of 4 warps *)
let test_trace_rejects_bad_ids () =
  let app = Workloads.Suite.find "GAU" in
  let input = Workloads.App.default_input app in
  let rejects ~ctaid ~warp =
    match
      G.Trace.warp_trace ~ctaid ~warp (Workloads.App.launch app ~input ())
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (ctaid, warp) ->
       check (Printf.sprintf "block %d warp %d rejected" ctaid warp) true
         (rejects ~ctaid ~warp))
    [ (999, 0); (-1, 0); (input.Workloads.App.num_blocks, 0); (0, 99); (0, -1) ]

(* ---------- a launch is a value ---------- *)

(* Every executor runs on its own copy of the launch's memory: on the
   shared, frozen image of an input and on a writable image alike, the
   image reads back the same after each of them, and its digest does
   not move. *)
let test_no_execution_writes_a_launch () =
  let app = Workloads.Suite.find "BFS" in
  let input = { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 } in
  let block_size = app.Workloads.App.block_size in
  let k = Workloads.App.kernel app in
  let machine =
    let alloc =
      Regalloc.Allocator.allocate
        ~scalar:(Machine.Scalarize.predicate ~block_size k)
        ~scalar_limit:Machine.Backend.default_scalar_limit ~block_size ~reg_limit:64 k
    in
    Machine.Lower.run alloc
  in
  let sanitizer () =
    G.Sancheck.runtime
      (Verify.Sanitize.mask ~force:true
         (Verify.Sanitize.sanitize_kernel ~block_size
            ~num_blocks:input.Workloads.App.num_blocks
            ~params:(Workloads.App.int_params app input) k))
  in
  let executions =
    [ ("Emulator.run", fun l -> ignore (G.Emulator.run l))
    ; ("Emulator.run ~record", fun l -> ignore (recorded l))
    ; ("Emulator.run ~sanitize", fun l -> ignore (G.Emulator.run ~sanitize:(sanitizer ()) l))
    ; ("Sm.run", fun l -> ignore (G.Sm.run fermi l))
    ; ("Sm.run ~replay", fun l -> ignore (G.Sm.run ~replay:(snd (recorded l)) fermi l))
    ; ("Gpu.run", fun l -> ignore (G.Gpu.run ~sms:2 fermi l))
    ; ("Profile.run", fun l -> ignore (G.Profile.run l))
    ; ("Segments.of_launch", fun l -> ignore (Crat.Segments.of_launch fermi l))
    ; ("Trace.warp_trace", fun l -> ignore (G.Trace.warp_trace ~ctaid:1 ~warp:0 l))
    ; ("Machine.Exec.run", fun l -> ignore (Machine.Exec.run machine l))
    ]
  in
  let shared = Workloads.App.launch app ~input () in
  let writable =
    { shared with G.Launch.memory = G.Memory.copy shared.G.Launch.memory }
  in
  (* [Sanitize.validate] builds its own launch on the shared image *)
  let validate = ("Sanitize.validate", fun _ -> ignore (Crat.Sanitize.validate app ~input)) in
  List.iter
    (fun (which, (l : G.Launch.t), runs) ->
       let m = l.G.Launch.memory in
       let before = G.Memory.copy m in
       let digest = G.Memory.digest before in
       List.iter
         (fun (name, run) ->
            run l;
            check (Printf.sprintf "%s: %s leaves the contents" which name) true
              (G.Memory.equal before m);
            Alcotest.(check string)
              (Printf.sprintf "%s: %s leaves the digest" which name)
              digest
              (G.Memory.digest (G.Memory.copy m)))
         runs;
       check (which ^ ": the image keeps its digest") true (G.Memory.digest m = digest))
    [ ("shared", shared, executions @ [ validate ]); ("writable", writable, executions) ]

let test_frozen_image () =
  let app = Workloads.Suite.find "GAU" in
  let m = Workloads.App.memory app (Workloads.App.default_input app) in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s on a frozen image must raise" name
    | exception Invalid_argument _ -> ()
  in
  raises "write" (fun () -> G.Memory.write m 0L T.U32 (G.Value.of_int 1));
  raises "store_bits" (fun () -> G.Memory.store_bits m 0L ~isf:false 1L);
  raises "write_f32_array" (fun () -> G.Memory.write_f32_array m ~base:0L [| 1.0 |]);
  raises "store_lanes" (fun () ->
    G.Memory.store_lanes m ~isf:false ~addrs:[| 0.0 |] ~lanes:[| 0 |] ~n:1 [| 1.0 |] 0);
  let c = G.Memory.copy m in
  let d = G.Memory.digest m in
  G.Memory.write c Workloads.Data.out_base T.U32 (G.Value.of_int 7);
  check_int "a copy is writable" 7
    (G.Memory.read_u32_array c ~base:Workloads.Data.out_base 1).(0);
  check "a copy caches no digest" true (G.Memory.digest c <> d);
  check "the image is untouched" true (G.Memory.digest (G.Memory.copy m) = d)

(* Worker domains asking for one input's image at once get one image. *)
let test_shared_image_across_domains () =
  let app = Workloads.Suite.find "GAU" in
  (* a seed no other test builds, so the image is built under the race *)
  let input = { (Workloads.App.default_input app) with Workloads.App.seed = 90_210 } in
  let images =
    Crat.Engine.map (Crat.Engine.create ~jobs:2 ())
      (fun _ -> Workloads.App.memory app input)
      (List.init 8 Fun.id)
  in
  check "one physical image" true
    (List.for_all (fun m -> m == List.hd images) images)

(* One bound for every driver: at [max_warp_instrs] n, a straight-line
   warp of exactly n instructions finishes and one of n + 1 raises,
   on the emulator and on the machine executor alike. *)
let test_one_instruction_bound () =
  let straight adds =
    let b = B.create "line" in
    let r = B.mov b T.U32 (B.imm 0) in
    for _ = 1 to adds do
      B.acc_binop b I.Add T.U32 r (B.imm 1)
    done;
    B.ret b;
    B.finish b
  in
  let launch k =
    G.Launch.make ~kernel:k ~block_size:32 ~num_blocks:1 (G.Memory.create ())
  in
  let verdict run =
    match run () with
    | _ -> "finished"
    | exception G.Simt.Over_budget -> "over budget"
  in
  let n = Ptx.Kernel.instr_count (straight 10) in
  List.iter
    (fun (adds, want) ->
       let k = straight adds in
       let m =
         Machine.Lower.run
           (Regalloc.Allocator.allocate ~block_size:32 ~reg_limit:16 k)
       in
       check_int "the machine program is as long" (Ptx.Kernel.instr_count k)
         (Array.length m.Machine.Lower.code);
       Alcotest.(check string)
         (Printf.sprintf "Emulator, %d instructions" (Ptx.Kernel.instr_count k))
         want
         (verdict (fun () -> G.Emulator.run ~max_warp_instrs:n (launch k)));
       Alcotest.(check string)
         (Printf.sprintf "Machine.Exec, %d instructions" (Ptx.Kernel.instr_count k))
         want
         (verdict (fun () -> Machine.Exec.run ~max_warp_instrs:n m (launch k))))
    [ (10, "finished"); (11, "over budget") ]

let () =
  Alcotest.run "gpusim"
    [ ( "values"
      , [ Alcotest.test_case "masking" `Quick test_value_masking
        ; Alcotest.test_case "integer binops" `Quick test_value_binops
        ; Alcotest.test_case "float ops" `Quick test_value_float
        ; Alcotest.test_case "conversions" `Quick test_value_convert
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_int_add_matches_reference ] )
    ; ( "memory"
      , [ Alcotest.test_case "read/write" `Quick test_memory_rw
        ; Alcotest.test_case "arrays" `Quick test_memory_arrays
        ] )
    ; ( "cache"
      , [ Alcotest.test_case "dram queue" `Quick test_dram_bandwidth_queue
        ; Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill
        ; Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction
        ; Alcotest.test_case "MSHR exhaustion" `Quick test_cache_mshr_exhaustion
        ; Alcotest.test_case "write-through no-alloc" `Quick test_cache_write_through_no_alloc
        ; Alcotest.test_case "dirty writeback" `Quick test_cache_writeback_dirty
        ] )
    ; ( "occupancy"
      , [ Alcotest.test_case "paper examples" `Quick test_occupancy_paper_example
        ; Alcotest.test_case "utilization" `Quick test_occupancy_utilization
        ; Alcotest.test_case "limiting resource" `Quick test_limiting_resource
        ; Alcotest.test_case "zero registers" `Quick test_occupancy_zero_registers
        ; Alcotest.test_case "reg/shm crossover" `Quick
            test_occupancy_reg_shm_crossover
        ; QCheck_alcotest.to_alcotest occupancy_consistency
        ] )
    ; ( "image"
      , [ Alcotest.test_case "declaration layout" `Quick test_image_layout
        ; Alcotest.test_case "local interleaving" `Quick test_local_interleaving_coalesces
        ] )
    ; ( "coalescing"
      , [ Alcotest.test_case "segment counts" `Quick test_coalescing_segments ] )
    ; ( "banks"
      , [ Alcotest.test_case "conflicts detected and costed" `Quick
            test_bank_conflicts_detected
        ; Alcotest.test_case "spill layout padding" `Quick test_spill_layout_padding
        ] )
    ; ( "simt"
      , [ Alcotest.test_case "divergence result" `Quick test_simt_divergence
        ; Alcotest.test_case "divergence stack" `Quick test_divergence_stack_mechanics
        ; Alcotest.test_case "barrier (emulator)" `Quick test_barrier_communication_emulator
        ; Alcotest.test_case "barrier (timing sim)" `Quick test_barrier_communication_sm
        ; Alcotest.test_case "barrier (every scheduler)" `Quick
            test_barrier_every_scheduler
        ] )
    ; ( "trace"
      , [ Alcotest.test_case "records execution" `Quick test_trace_records_execution
        ; Alcotest.test_case "rejects bad block/warp ids" `Quick
            test_trace_rejects_bad_ids
        ] )
    ; ( "dynamic-tlp"
      , [ Alcotest.test_case "correct under pausing" `Quick test_dynamic_tlp_correct
        ; Alcotest.test_case "helps thrashing kernels" `Slow
            test_dynamic_tlp_helps_thrashing
        ; Alcotest.test_case "paused block's greedy warp waits" `Quick
            test_dynamic_tlp_pauses_greedy_warp
        ] )
    ; ( "multi-sm"
      , [ Alcotest.test_case "correct across SMs" `Quick test_gpu_multi_sm_correct
        ; Alcotest.test_case "scaling helps" `Quick test_gpu_scaling
        ; Alcotest.test_case "deterministic" `Quick test_gpu_deterministic
        ] )
    ; ( "timing"
      , [ Alcotest.test_case "matches emulator" `Quick test_sm_matches_emulator
        ; Alcotest.test_case "deterministic" `Quick test_sm_deterministic
        ; Alcotest.test_case "TLP limit respected" `Quick test_sm_tlp_limit_respected
        ; Alcotest.test_case "parallelism helps light kernels" `Quick
            test_sm_more_tlp_not_slower_for_insensitive
        ; Alcotest.test_case "GTO vs LRR" `Quick test_sm_gto_vs_lrr
        ; Alcotest.test_case "cycle limit" `Quick test_cycle_limit_raised
        ; Alcotest.test_case "endless kernel hits the cycle limit" `Quick
            test_cycle_limit_on_endless_kernel
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_emulator_vs_sm ] )
    ; ( "launch"
      , [ Alcotest.test_case "no execution writes a launch" `Quick
            test_no_execution_writes_a_launch
        ; Alcotest.test_case "frozen image" `Quick test_frozen_image
        ; Alcotest.test_case "one image across domains" `Quick
            test_shared_image_across_domains
        ; Alcotest.test_case "one warp-instruction bound" `Quick
            test_one_instruction_bound
        ] )
    ]
