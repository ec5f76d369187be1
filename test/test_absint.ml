(* Tests for lib/absint and the advisor stack built on it:

   - interval-domain unit tests (transfer functions, widening/narrowing)
   - provable loop trip counts
   - QCheck soundness: random kernels stepped through the reference
     interpreter; every concrete register value must lie in the claimed
     interval, match the claimed affine form, and respect claimed
     uniformity
   - the profiler's per-pc counters, pinned per launch in
     golden/profile.expected (every workload's default input,
     unallocated and at r20 with both shared spares), and the flat pc
     they share with the advisor's claims
   - the interval-driven constant folder
   - golden rendering of the advisor's P-codes
   - the differential honesty sweep: on every suite workload, dynamic
     per-pc counters never exceed a static claim and every dynamic event
     is covered by a static record. *)

module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types
module A = Absint.Analysis
module Dom = Absint.Dom
module Itv = Absint.Dom.Itv
module Trip = Absint.Trip
module Refinterp = Testsupport.Refinterp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- interval domain ---------- *)

let itv = Alcotest.testable Itv.pp Itv.equal

let test_itv_arith () =
  Alcotest.check itv "add" (Itv.range 11 23)
    (Itv.add (Itv.range 1 3) (Itv.range 10 20));
  Alcotest.check itv "sub" (Itv.range (-19) (-7))
    (Itv.sub (Itv.range 1 3) (Itv.range 10 20));
  Alcotest.check itv "mul signs" (Itv.range (-8) 12)
    (Itv.mul (Itv.range (-2) 3) (Itv.const 4));
  Alcotest.check itv "shl" (Itv.range 4 8)
    (Itv.shl (Itv.range 1 2) (Itv.const 2));
  Alcotest.check itv "shr signed" (Itv.range (-4) 4)
    (Itv.shr ~signed:true (Itv.range (-8) 8) (Itv.const 1));
  Alcotest.check itv "logand bound" (Itv.range 0 7)
    (Itv.logand (Itv.range 0 100) (Itv.range 0 7));
  check "top absorbs" true (Itv.is_top (Itv.add Itv.top (Itv.const 1)))

let test_itv_lattice () =
  Alcotest.check itv "join" (Itv.range 0 9)
    (Itv.join (Itv.range 0 3) (Itv.range 7 9));
  let w = Itv.widen (Itv.range 0 10) (Itv.range 0 20) in
  check "widen pushes moving bound to +oo" true (w.Itv.hi = max_int);
  check "widen keeps stable bound" true (w.Itv.lo = 0);
  Alcotest.check itv "narrow refines infinite bound" (Itv.range 0 100)
    (Itv.narrow w (Itv.range 0 100));
  check "contains" true (Itv.contains (Itv.range (-5) 5) 3L);
  check "not contains" false (Itv.contains (Itv.range (-5) 5) 6L);
  check_int "singleton" 4 (Option.get (Itv.singleton (Itv.const 4)))

(* ---------- trip counts ---------- *)

let store_u32 b out64 v =
  B.st b T.Global T.U32 (B.reg out64) 0 (B.reg v)

let counted_loop_kernel name below =
  let b = B.create name in
  let out = B.param b "out" T.U64 in
  let out64 = B.ld_param b T.U64 out in
  let acc = B.mov b T.U32 (B.imm 0) in
  B.for_loop b ~from:(B.imm 0) ~below ~step:1 (fun i ->
    B.acc_binop b I.Add T.U32 acc (B.reg i));
  store_u32 b out64 acc;
  B.finish b

let analysis_of ?params k = A.run ~block_size:64 ?params (Cfg.Flow.of_kernel k)

let the_loop an =
  match Trip.loops an with
  | [ l ] -> l
  | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls)

let test_trip_constant () =
  let an = analysis_of (counted_loop_kernel "trip10" (B.imm 10)) in
  Alcotest.(check (option int)) "ten trips" (Some 10) (the_loop an).Trip.trips

let test_trip_zero () =
  let an = analysis_of (counted_loop_kernel "trip0" (B.imm 0)) in
  Alcotest.(check (option int)) "zero trips" (Some 0) (the_loop an).Trip.trips

let param_loop_kernel () =
  let b = B.create "tripn" in
  let out = B.param b "out" T.U64 in
  let n = B.param b "n" T.U32 in
  let out64 = B.ld_param b T.U64 out in
  let nval = B.ld_param b T.U32 n in
  let acc = B.mov b T.U32 (B.imm 0) in
  B.for_loop b ~from:(B.imm 0) ~below:(B.reg nval) ~step:1 (fun i ->
    B.acc_binop b I.Add T.U32 acc (B.reg i));
  store_u32 b out64 acc;
  B.finish b

let test_trip_param () =
  let k = param_loop_kernel () in
  Alcotest.(check (option int)) "unknown without the launch" None
    (the_loop (analysis_of k)).Trip.trips;
  Alcotest.(check (option int)) "proven with the parameter value" (Some 7)
    (the_loop (analysis_of ~params:[ ("n", 7L) ] k)).Trip.trips

let test_trip_shr () =
  (* x = 64; do { x >>= 1 } while (x > 0)  — 7 body executions *)
  let b = B.create "tripshr" in
  let out = B.param b "out" T.U64 in
  let out64 = B.ld_param b T.U64 out in
  let x = B.mov b T.U32 (B.imm 64) in
  let l = B.fresh_label b "Lshr" in
  B.label b l;
  B.acc_binop b I.Shr T.U32 x (B.imm 1);
  let p = B.setp b I.Gt T.U32 (B.reg x) (B.imm 0) in
  B.bra_if b p l;
  store_u32 b out64 x;
  let an = analysis_of (B.finish b) in
  Alcotest.(check (option int)) "shift-reduction trips" (Some 7)
    (the_loop an).Trip.trips

(* ---------- QCheck soundness against Refinterp ---------- *)

let inp_base = 0x1000_0000L
let out_base = 0x2000_0000L

let soundness_params = [ ("inp", inp_base); ("out", out_base); ("n", 1024L) ]

let check_warp_state an w =
  match Refinterp.peek w with
  | None -> ()
  | Some ins ->
    let pc = Refinterp.pc w in
    let mask = Refinterp.active_mask w in
    let ctaid = (Refinterp.block_of w).Refinterp.ctaid in
    let warp_base = Refinterp.warp_id w * 32 in
    List.iter
      (fun r ->
         let dv = A.value_at an pc r in
         let values = Refinterp.read_reg_values w r in
         let seen = ref None in
         Array.iteri
           (fun lane v ->
              if mask land (1 lsl lane) <> 0 then begin
                let bits = Gpusim.Value.to_bits v in
                if not (Itv.contains dv.Dom.itv bits) then
                  Alcotest.failf "pc %d %%r%d lane %d: %Ld outside %s" pc
                    (Ptx.Reg.id r) lane bits
                    (Format.asprintf "%a" Itv.pp dv.Dom.itv);
                let a = dv.Dom.aff in
                (if a.Dom.exact && a.Dom.sym = None then
                   let tid = warp_base + lane in
                   let expected =
                     Int64.add
                       (Int64.add
                          (Int64.mul (Int64.of_int a.Dom.tid) (Int64.of_int tid))
                          (Int64.mul (Int64.of_int a.Dom.cta)
                             (Int64.of_int ctaid)))
                       (Int64.of_int a.Dom.base)
                   in
                   if not (Int64.equal bits expected) then
                     Alcotest.failf
                       "pc %d %%r%d lane %d: %Ld <> affine %Ld (tid %d cta %d)"
                       pc (Ptx.Reg.id r) lane bits expected a.Dom.tid a.Dom.cta);
                if dv.Dom.uni then begin
                  match !seen with
                  | None -> seen := Some bits
                  | Some prev ->
                    if not (Int64.equal prev bits) then
                      Alcotest.failf
                        "pc %d %%r%d: claimed uniform but lanes differ (%Ld vs %Ld)"
                        pc (Ptx.Reg.id r) prev bits
                end
              end)
           values)
      (I.uses ins)

let run_checked k =
  let block_size = 64 and num_blocks = 2 in
  let an =
    A.run ~block_size ~num_blocks ~warp_size:32 ~params:soundness_params
      (Cfg.Flow.of_kernel k)
  in
  let mem = Gpusim.Memory.create () in
  Gpusim.Memory.write_f32_array mem ~base:inp_base
    (Workloads.Data.uniform_f32 ~seed:5 1024);
  let image = Gpusim.Image.prepare k in
  let lctx =
    { Refinterp.image
    ; global = mem
    ; params =
        [ ("inp", Gpusim.Value.I inp_base)
        ; ("out", Gpusim.Value.I out_base)
        ; ("n", Gpusim.Value.of_int 1024)
        ]
    ; block_size
    ; num_blocks; san = None
    }
  in
  for ctaid = 0 to num_blocks - 1 do
    let _block, warps = Refinterp.make_block lctx ~ctaid ~warp_size:32 in
    List.iter
      (fun w ->
         (* generated kernels are barrier-free: run each warp to
            completion, checking the claimed state before every step *)
         while not (Refinterp.is_done w) do
           check_warp_state an w;
           ignore (Refinterp.step w)
         done)
      warps
  done

(* each random kernel is also checked after allocation at a tight
   limit with shared spilling, so spill reloads (local and sub-stack)
   are checked lane by lane; a kernel the allocator rejects is skipped *)
let prop_absint_sound =
  QCheck.Test.make ~count:60
    ~name:"concrete runs stay inside intervals, affine forms and uniformity"
    Testsupport.Gen.arbitrary_kernel
    (fun k ->
       run_checked k;
       (match
          Regalloc.Allocator.allocate ~shared_policy:(`Spare 8192)
            ~block_size:64 ~reg_limit:14 k
        with
        | a -> run_checked a.Regalloc.Allocator.kernel
        | exception Failure _ -> ());
       true)

(* ---------- QCheck: hybrid-sanitizer soundness ---------- *)

(* Force-arm every claim (including Proven_safe) on random kernels with
   shared traffic: a violation recorded at a proven-safe pc disproves
   the static bounds analysis. Residual pcs may trip — the generator's
   data-dependent shared store really does escape its array — and the
   boxed and predecoded interpreters must agree on what they saw. *)
let run_sanitized k =
  let block_size = 64 and num_blocks = 2 in
  let an =
    A.run ~block_size ~num_blocks ~warp_size:32 ~params:soundness_params
      (Cfg.Flow.of_kernel k)
  in
  let mask = Absint.Bounds.mask ~force:true (Absint.Bounds.analyze an) in
  let launch () =
    let mem = Gpusim.Memory.create () in
    Gpusim.Memory.write_f32_array mem ~base:inp_base
      (Workloads.Data.uniform_f32 ~seed:5 1024);
    Gpusim.Launch.make ~warp_size:32 ~kernel:k ~block_size ~num_blocks
      ~params:
        [ ("inp", Gpusim.Value.I inp_base)
        ; ("out", Gpusim.Value.I out_base)
        ; ("n", Gpusim.Value.of_int 1024)
        ]
      mem
  in
  let ref_rt = Gpusim.Sancheck.runtime mask in
  ignore (Refinterp.run ~sanitize:ref_rt (launch ()));
  let fast_rt = Gpusim.Sancheck.runtime mask in
  ignore (Gpusim.Emulator.run ~sanitize:fast_rt (launch ()));
  List.iter
    (fun (pc, (s : Gpusim.Sancheck.stat)) ->
       if s.Gpusim.Sancheck.violations > 0 then
         match Gpusim.Sancheck.claim_at mask pc with
         | Some (Gpusim.Sancheck.Proven_safe _) ->
           Alcotest.failf "pc %d: proven safe but %d dynamic violation(s)" pc
             s.Gpusim.Sancheck.violations
         | Some (Gpusim.Sancheck.Residual _ | Gpusim.Sancheck.Proven_oob _) ->
           ()
         | None -> Alcotest.failf "pc %d: violation with no static claim" pc)
    (Gpusim.Sancheck.stats ref_rt.Gpusim.Sancheck.counters);
  let vr = Gpusim.Sancheck.violations ref_rt.Gpusim.Sancheck.counters in
  let vf = Gpusim.Sancheck.violations fast_rt.Gpusim.Sancheck.counters in
  if vr <> vf then
    Alcotest.failf
      "interpreters disagree on violations: Refinterp saw %d, Interp %d" vr vf

let prop_sanitizer_sound =
  QCheck.Test.make ~count:60
    ~name:"forced sanitizer checks never fire on proven-safe accesses"
    (QCheck.make ~print:Ptx.Printer.kernel_to_string
       (Testsupport.Gen.kernel ~with_shared:true ()))
    (fun k ->
       run_sanitized k;
       true)

(* ---------- divergence on allocated kernels ---------- *)

(* an r20 allocation with shared spilling: [Spare 512] is too small for
   a sub-stack, so every spill goes to local memory; [Spare 8192] moves
   spills into the shared sub-stack on 21 of the 22 apps *)
let alloc_r20 (app : Workloads.App.t) spare =
  ( Printf.sprintf "%s r20 spare %d" app.Workloads.App.abbr spare
  , (Regalloc.Allocator.allocate ~shared_policy:(`Spare spare)
       ~block_size:app.Workloads.App.block_size ~reg_limit:20
       (Workloads.App.kernel app))
      .Regalloc.Allocator.kernel )

(* allocation keeps the block structure, and private reloads keep
   spilled uniform values uniform: at [Spare 512] the divergent blocks
   are exactly the unallocated kernel's *)
let test_allocation_keeps_divergence () =
  List.iter
    (fun (app : Workloads.App.t) ->
       let divergent k =
         let flow = Cfg.Flow.of_kernel k in
         let an = A.run ~block_size:app.Workloads.App.block_size flow in
         ( Cfg.Flow.num_blocks flow
         , List.filter (A.divergent_block an)
             (List.init (Cfg.Flow.num_blocks flow) Fun.id) )
       in
       let nb, expected = divergent (Workloads.App.kernel app) in
       let label, k = alloc_r20 app 512 in
       let nb', got = divergent k in
       check_int (label ^ " block count") nb nb';
       Alcotest.(check (list int)) (label ^ " divergent blocks") expected got)
    Workloads.Suite.all

(* ---------- the profiler's per-pc counters ---------- *)

(* The launches the profiler's counters are pinned on: every workload's
   default input, unallocated and at r20 with both spares. Each is
   profiled once and shared by the tests below. *)
type profiled =
  { app : Workloads.App.t
  ; label : string
  ; kernel : Ptx.Kernel.t
  ; allocated : bool
  ; prof : Gpusim.Profile.t
  }

let profiled =
  lazy
    (List.concat_map
       (fun (app : Workloads.App.t) ->
          List.map
            (fun (allocated, (label, kernel)) ->
               let prof =
                 Gpusim.Profile.run
                   (Workloads.App.launch app ~kernel
                      ~input:(Workloads.App.default_input app) ())
               in
               { app; label; kernel; allocated; prof })
            [ (false, (app.Workloads.App.abbr ^ " default", Workloads.App.kernel app))
            ; (true, alloc_r20 app 512)
            ; (true, alloc_r20 app 8192)
            ])
       Workloads.Suite.all)

(* [name]'s golden file, or, with [GOLDEN_WRITE=dir] set, [actual]
   written into [dir] instead *)
let check_golden name actual =
  match Sys.getenv_opt "GOLDEN_WRITE" with
  | Some dir ->
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
      Out_channel.output_string oc actual)
  | None ->
    let path =
      List.find Sys.file_exists
        [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
    in
    let expected = In_channel.with_open_text path In_channel.input_all in
    Alcotest.(check string) name expected actual

(* one line per launch: its label, how many pcs it counted, and the hex
   digest of every counter *)
let render_profile label prof =
  let mems = Gpusim.Profile.mems prof in
  let branches = Gpusim.Profile.branches prof in
  let b = Buffer.create 1024 in
  List.iter
    (fun (pc, (s : Gpusim.Profile.mem_stat)) ->
       Printf.bprintf b "mem %d %s %d %d %d\n" pc
         (T.space_to_string s.Gpusim.Profile.m_space)
         s.Gpusim.Profile.m_execs s.Gpusim.Profile.max_segments
         s.Gpusim.Profile.max_bank_degree)
    mems;
  List.iter
    (fun (pc, (s : Gpusim.Profile.branch_stat)) ->
       Printf.bprintf b "bra %d %d %d\n" pc s.Gpusim.Profile.b_execs
         s.Gpusim.Profile.b_divergent)
    branches;
  Printf.sprintf "%s: %d mems, %d branches, %s\n" label (List.length mems)
    (List.length branches)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* the counters' pcs are the flat [Cfg.Flow] index the advisor's claims
   use: the predecoded image has one step outcome per flow instruction,
   and a memory step exactly at each shared/global/local ld/st *)
let check_pcs_agree label k =
  let instrs = (Cfg.Flow.of_kernel k).Cfg.Flow.instrs in
  let exec_of = (Gpusim.Image.prepare k).Gpusim.Image.code.Gpusim.Dcode.exec_of in
  check_int (label ^ " one step outcome per flow instruction")
    (Array.length instrs) (Array.length exec_of);
  let disagree =
    List.filter
      (fun pc ->
         let lsu =
           match instrs.(pc) with
           | I.Ld ((T.Shared | T.Global | T.Local), _, _, _)
           | I.St ((T.Shared | T.Global | T.Local), _, _, _) -> true
           | _ -> false
         in
         match exec_of.(pc) with
         | Gpusim.Dcode.E_mem _ -> not lsu
         | _ -> lsu)
      (List.init (Array.length instrs) Fun.id)
  in
  Alcotest.(check (list int)) (label ^ " memory steps are the ld/st") [] disagree

let test_profile_pinned () =
  let rendered =
    List.map
      (fun p ->
         check_pcs_agree p.label p.kernel;
         render_profile p.label p.prof)
      (Lazy.force profiled)
  in
  check_golden "profile.expected" (String.concat "" rendered)

(* every branch that split a warp on the default input is claimed
   non-uniform on the allocated kernel *)
let test_allocated_branches_sound () =
  let split = ref 0 in
  List.iter
    (fun e ->
       if e.allocated then begin
         let flow = Cfg.Flow.of_kernel e.kernel in
         let an = A.run ~block_size:e.app.Workloads.App.block_size flow in
         List.iter
           (fun (pc, (b : Gpusim.Profile.branch_stat)) ->
              if b.Gpusim.Profile.b_divergent > 0 then begin
                incr split;
                match flow.Cfg.Flow.instrs.(pc) with
                | I.Bra_pred (p, _, _) when (A.value_at an pc p).Dom.uni ->
                  Alcotest.failf "%s: branch at %d split a warp but is \
                                  claimed uniform" e.label pc
                | _ -> ()
              end)
           (Gpusim.Profile.branches e.prof)
       end)
    (Lazy.force profiled);
  check "some branch split a warp" true (!split > 0)

(* ---------- interval-driven constant folding ---------- *)

let test_intfold () =
  let b = B.create "intfold" in
  let out = B.param b "out" T.U64 in
  let out64 = B.ld_param b T.U64 out in
  let tid = B.special b Ptx.Reg.Tid_x in
  let z = B.binop b I.And T.U32 (B.reg tid) (B.imm 0) in
  let r = B.add b T.U32 (B.reg z) (B.imm 5) in
  store_u32 b out64 r;
  let k = B.finish b in
  let k', n = Ptxopt.Intfold.run ~block_size:64 k in
  check "folded the provably-zero operand" true (n >= 1);
  let folded_to_zero =
    List.exists
      (function
        | I.Binop (I.Add, T.U32, _, I.Oimm 0L, _)
        | I.Binop (I.Add, T.U32, _, _, I.Oimm 0L) -> true
        | _ -> false)
      (Ptx.Kernel.instrs k')
  in
  check "operand rewritten to the immediate" true folded_to_zero;
  (* the armed pipeline then cleans the dead mask away *)
  let k'', report = Ptxopt.Pipeline.run ~intfold:true ~block_size:64 k in
  check "pipeline shrinks the kernel" true
    (Ptx.Kernel.instr_count k'' < Ptx.Kernel.instr_count k);
  check "report counts the interval folds" true (report.Ptxopt.Pipeline.folded >= 1)

(* ---------- advisor: P-codes, golden rendering ---------- *)

(* A deterministic kernel exhibiting every advisory family the suite
   itself does not cover: strided global traffic (P202), proven and
   possible bank conflicts (P301/P302), a divergent branch inside and
   outside loops (P401/P402), an unprovable and a zero-trip loop
   (P501/P502), and pressure past a tiny budget (P101). *)
let clinic_kernel () =
  let b = B.create "clinic" in
  let inp = B.param b "inp" T.U64 in
  let out = B.param b "out" T.U64 in
  let inp64 = B.ld_param b T.U64 inp in
  let out64 = B.ld_param b T.U64 out in
  let tid = B.special b Ptx.Reg.Tid_x in
  let sdata = B.decl_shared b "sdata" T.F32 256 in
  let sbase = B.mov b T.U32 sdata in
  (* P202: 16-byte lane stride *)
  let sb = B.mul b T.U32 (B.reg tid) (B.imm 16) in
  let so = B.cvt b T.U64 T.U32 (B.reg sb) in
  let sa = B.add b T.U64 (B.reg inp64) (B.reg so) in
  let sv = B.ld b T.Global T.F32 (B.reg sa) 0 in
  (* P301: shared store at an 8-byte lane stride, provably 2-way *)
  let cb = B.mul b T.U32 (B.reg tid) (B.imm 8) in
  let ca = B.add b T.U32 (B.reg sbase) (B.reg cb) in
  B.st b T.Shared T.F32 (B.reg ca) 0 (B.reg sv);
  (* P302: data-dependent shared index *)
  let gb = B.mul b T.U32 (B.reg tid) (B.imm 4) in
  let go = B.cvt b T.U64 T.U32 (B.reg gb) in
  let ga = B.add b T.U64 (B.reg inp64) (B.reg go) in
  let raw = B.ld b T.Global T.U32 (B.reg ga) 0 in
  let m = B.binop b I.And T.U32 (B.reg raw) (B.imm 255) in
  let mb = B.mul b T.U32 (B.reg m) (B.imm 4) in
  let ma = B.add b T.U32 (B.reg sbase) (B.reg mb) in
  let dv = B.ld b T.Shared T.F32 (B.reg ma) 0 in
  let acc = B.mov b T.F32 (B.fimm 0.0) in
  (* P501 + P401: data-bounded loop with a divergent branch inside *)
  B.for_loop b ~from:(B.imm 0) ~below:(B.reg m) ~step:1 (fun _ ->
    let bit = B.binop b I.And T.U32 (B.reg raw) (B.imm 1) in
    let p = B.setp b I.Eq T.U32 (B.reg bit) (B.imm 1) in
    let skip = B.fresh_label b "Lskip" in
    B.bra_ifnot b p skip;
    B.acc_binop b I.Add T.F32 acc (B.reg dv);
    B.label b skip);
  (* P502: provably dead loop *)
  B.for_loop b ~from:(B.imm 0) ~below:(B.imm 0) ~step:1 (fun _ ->
    B.acc_binop b I.Add T.F32 acc (B.fimm 1.0));
  (* P402: straight-line divergent branch *)
  let p2 = B.setp b I.Lt T.U32 (B.reg tid) (B.imm 7) in
  let skip2 = B.fresh_label b "Ltail" in
  B.bra_ifnot b p2 skip2;
  B.acc_binop b I.Add T.F32 acc (B.reg sv);
  B.label b skip2;
  let ob = B.mul b T.U32 (B.reg tid) (B.imm 4) in
  let oo = B.cvt b T.U64 T.U32 (B.reg ob) in
  let oa = B.add b T.U64 (B.reg out64) (B.reg oo) in
  B.st b T.Global T.F32 (B.reg oa) 0 (B.reg acc);
  B.finish b

let advisor_render () =
  let clinic =
    Verify.Advisor.lint_kernel ~block_size:64 ~reg_budget:4 (clinic_kernel ())
  in
  let kmn = Crat.Lint.lint (Workloads.Suite.find "KMN") in
  String.concat ""
    (List.map
       (fun (r : Verify.Advisor.report) ->
          Printf.sprintf "# %s (maxlive %d)\n%s\n" r.Verify.Advisor.kernel
            r.Verify.Advisor.pressure.Absint.Pressure.maxlive
            (Verify.Diagnostic.render r.Verify.Advisor.diags))
       [ clinic; kmn ])

let test_advisor_golden () = check_golden "advisor.expected" (advisor_render ())

let test_advisor_codes_documented () =
  let clinic =
    Verify.Advisor.lint_kernel ~block_size:64 ~reg_budget:4 (clinic_kernel ())
  in
  let codes = List.map (fun d -> d.Verify.Diagnostic.code) clinic.Verify.Advisor.diags in
  List.iter
    (fun c ->
       check
         (Printf.sprintf "code %s documented" c)
         true
         (List.mem_assoc c Verify.Diagnostic.all_codes))
    codes;
  (* the clinic exercises every family *)
  List.iter
    (fun c ->
       check (Printf.sprintf "clinic emits %s" c) true (List.mem c codes))
    [ "P101"; "P202"; "P301"; "P302"; "P401"; "P402"; "P501"; "P502" ]

(* ---------- differential honesty sweep over the suite ---------- *)

let test_lint_sweep_validates () =
  List.iter
    (fun (app : Workloads.App.t) ->
       let report, failures = Crat.Lint.validate app in
       if failures <> [] then
         Alcotest.failf "%s advisor claims violated:\n%s"
           app.Workloads.App.abbr
           (String.concat "\n" failures);
       (* the sweep is also the coverage proof: validate checks every
          dynamic mem access / branch has a static record at its pc *)
       ignore report)
    Workloads.Suite.all

let () =
  Alcotest.run "absint"
    [ ( "interval"
      , [ Alcotest.test_case "arithmetic" `Quick test_itv_arith
        ; Alcotest.test_case "lattice" `Quick test_itv_lattice
        ] )
    ; ( "trips"
      , [ Alcotest.test_case "constant bound" `Quick test_trip_constant
        ; Alcotest.test_case "zero-trip" `Quick test_trip_zero
        ; Alcotest.test_case "parameter bound" `Quick test_trip_param
        ; Alcotest.test_case "shift reduction" `Quick test_trip_shr
        ] )
    ; ( "soundness"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_absint_sound; prop_sanitizer_sound ] )
    ; ( "allocated"
      , [ Alcotest.test_case "allocation keeps the divergent blocks" `Quick
            test_allocation_keeps_divergence
        ; Alcotest.test_case "split branches claimed divergent" `Slow
            test_allocated_branches_sound
        ] )
    ; ( "profile"
      , [ Alcotest.test_case "per-pc counters pinned" `Slow test_profile_pinned ] )
    ; ( "intfold"
      , [ Alcotest.test_case "folds interval singletons" `Quick test_intfold ] )
    ; ( "advisor"
      , [ Alcotest.test_case "golden file" `Quick test_advisor_golden
        ; Alcotest.test_case "codes documented" `Quick
            test_advisor_codes_documented
        ] )
    ; ( "sweep"
      , [ Alcotest.test_case "claims hold on every workload" `Slow
            test_lint_sweep_validates
        ] )
    ]
