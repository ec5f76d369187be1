(* Tests for the machine backend: lowering every workload to the
   SASS-like ISA under split vector/scalar budgets, the independent
   per-class audit, encode/decode, the scalarization payoff, and the
   differential check that machine-ISA execution matches the PTX
   reference interpreter. *)

module A = Regalloc.Allocator

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scalar_limit = Machine.Backend.default_scalar_limit

(* Machine-backend allocation: warp-uniform registers proven by the
   scalarizer go to the per-warp scalar file. *)
let allocate_machine ?(reg_limit = 64) (a : Workloads.App.t) =
  let k = Workloads.App.kernel a in
  A.allocate
    ~scalar:(Machine.Scalarize.predicate ~block_size:a.Workloads.App.block_size k)
    ~scalar_limit
    ~block_size:a.Workloads.App.block_size ~reg_limit k

let fail_diags abbr diags =
  Alcotest.failf "%s: %s" abbr
    (String.concat "; "
       (List.map (fun d -> Fmt.str "%a" Verify.Diagnostic.pp d) diags))

(* Acceptance sweep: all 22 workloads lower, allocate under the split
   budgets and pass the independent machine auditor clean. *)
let test_sweep_lowers_clean () =
  List.iter
    (fun (a : Workloads.App.t) ->
       let alloc = allocate_machine a in
       let m = Machine.Lower.run alloc in
       (match Verify.Machine_audit.check m with
        | [] -> ()
        | diags -> fail_diags a.Workloads.App.abbr diags);
       check (a.Workloads.App.abbr ^ ": vector span within budget") true
         (m.Machine.Lower.vector_units <= 64 * 2);
       check (a.Workloads.App.abbr ^ ": scalar span within budget") true
         (m.Machine.Lower.scalar_units <= scalar_limit);
       check_int
         (a.Workloads.App.abbr ^ ": one 256-bit word group per insn")
         (4 * Array.length m.Machine.Lower.code)
         (Array.length m.Machine.Lower.encoded))
    Workloads.Suite.all

(* Spill code (local ld/st, spill temporaries) must lower and audit
   clean too: force spills with a tight vector budget. *)
let test_tight_limit_lowers_clean () =
  List.iter
    (fun abbr ->
       let a = Workloads.Suite.find abbr in
       let alloc = allocate_machine ~reg_limit:18 a in
       check (abbr ^ ": tight limit spills") true (alloc.A.spilled <> []);
       let m = Machine.Lower.run alloc in
       match Verify.Machine_audit.check m with
       | [] -> ()
       | diags -> fail_diags abbr diags)
    [ "CFD"; "FDTD"; "LBM" ]

(* A PTX-backend allocation (scalar file disabled) lowers to a program
   with an empty scalar file. *)
let test_ptx_allocation_lowers () =
  let a = Workloads.Suite.find "BLK" in
  let k = Workloads.App.kernel a in
  let alloc =
    A.allocate ~block_size:a.Workloads.App.block_size ~reg_limit:64 k
  in
  let m = Machine.Lower.run alloc in
  (match Verify.Machine_audit.check m with
   | [] -> ()
   | diags -> fail_diags "BLK/ptx" diags);
  check_int "no scalar units" 0 m.Machine.Lower.scalar_units;
  check "no scalarized registers" true (alloc.A.scalarized = 0)

let test_encode_roundtrip () =
  let a = Workloads.Suite.find "CFD" in
  let m = Machine.Lower.run (allocate_machine a) in
  let decoded = Machine.Encode.decode_program m.Machine.Lower.encoded in
  check "decode_program inverts encode_program" true
    (decoded = m.Machine.Lower.code);
  Array.iter
    (fun insn ->
       check "decode inverts encode per insn" true
         (Machine.Encode.decode (Machine.Encode.encode insn) = insn))
    m.Machine.Lower.code

(* The scalarization payoff on uniform-heavy workloads: the spill-free
   vector limit drops by at least one register, the scalar footprint is
   real, and occupancy at the respective spill-free points does not
   regress (strictly improves for KMN, where vector registers bind). *)
let test_scalarization_frees_registers () =
  let cfg = Gpusim.Config.fermi in
  let tlp_gain = ref false in
  List.iter
    (fun abbr ->
       let a = Workloads.Suite.find abbr in
       let rp = Crat.Resource.analyze cfg a in
       let rm = Crat.Resource.analyze ~backend:Machine.Backend.Machine cfg a in
       check (abbr ^ ": machine MaxReg below ptx MaxReg") true
         (rm.Crat.Resource.max_reg < rp.Crat.Resource.max_reg);
       check (abbr ^ ": scalar footprint present") true
         (rm.Crat.Resource.sregs_per_warp > 0);
       let tlp_at (r : Crat.Resource.t) =
         Gpusim.Occupancy.max_tlp cfg
           (Crat.Resource.usage_at r ~regs:r.Crat.Resource.max_reg)
       in
       let tp = tlp_at rp and tm = tlp_at rm in
       check (abbr ^ ": occupancy no worse at spill-free limit") true (tm >= tp);
       if tm > tp then tlp_gain := true)
    [ "KMN"; "BFS" ];
  check "occupancy strictly improves on a uniform-heavy workload" true
    !tlp_gain

(* Differential testing on the real workloads: the allocated PTX kernel
   under Refinterp and its machine lowering under Exec must produce the
   same memory image from identical launches. *)
let tiny_input (a : Workloads.App.t) =
  let i = Workloads.App.default_input a in
  { i with
    Workloads.App.num_blocks = 2
  ; iters = min 2 i.Workloads.App.iters
  ; passes = min 2 i.Workloads.App.passes
  }

let test_workload_differential () =
  List.iter
    (fun abbr ->
       let a = Workloads.Suite.find abbr in
       let alloc = allocate_machine a in
       let m = Machine.Lower.run alloc in
       let input = tiny_input a in
       let launch () =
         Workloads.App.launch a ~kernel:alloc.A.kernel ~input ()
       in
       check (abbr ^ ": machine execution matches Refinterp") true
         (Gpusim.Memory.equal (Testsupport.Refinterp.run (launch ()))
            (Machine.Exec.run m (launch ()))))
    [ "BLK"; "KMN"; "BFS"; "HST"; "GAU" ]

(* Differential testing on random kernels (the acceptance criterion):
   scalar registers hold one value per warp in Exec, so any unsound
   scalarization decision diverges from the per-lane reference. *)
let differential_random =
  QCheck.Test.make ~count:60 ~name:"machine Exec matches Refinterp"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let block_size = 64 in
      let alloc =
        A.allocate
          ~scalar:(Machine.Scalarize.predicate ~block_size k)
          ~scalar_limit ~block_size ~reg_limit:24 k
      in
      let m = Machine.Lower.run alloc in
      (match Verify.Machine_audit.check m with
       | [] -> ()
       | d :: _ ->
         QCheck.Test.fail_reportf "audit: %s" (Fmt.str "%a" Verify.Diagnostic.pp d));
      let run f =
        let mem = Gpusim.Memory.create () in
        Gpusim.Memory.write_f32_array mem ~base:0x1000_0000L
          (Workloads.Data.uniform_f32 ~seed:5 1024);
        let launch =
          Gpusim.Launch.make ~kernel:alloc.A.kernel ~block_size ~num_blocks:2
            ~params:
              [ ("inp", Gpusim.Value.I 0x1000_0000L)
              ; ("out", Gpusim.Value.I 0x2000_0000L)
              ; ("n", Gpusim.Value.of_int 1024)
              ]
            mem
        in
        f launch
      in
      Gpusim.Memory.equal (run Testsupport.Refinterp.run) (run (Machine.Exec.run m)))

(* Random kernels also all pass the auditor at a tight, spill-inducing
   limit. *)
let lowering_audits_clean_random =
  QCheck.Test.make ~count:60 ~name:"random kernels lower and audit clean"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let block_size = 64 in
      let alloc =
        A.allocate
          ~scalar:(Machine.Scalarize.predicate ~block_size k)
          ~scalar_limit ~block_size ~reg_limit:12 k
      in
      Verify.Machine_audit.check (Machine.Lower.run alloc) = [])

let () =
  Alcotest.run "machine"
    [ ( "lowering"
      , [ Alcotest.test_case "all 22 workloads lower and audit clean" `Quick
            test_sweep_lowers_clean
        ; Alcotest.test_case "spill code lowers clean at a tight limit" `Quick
            test_tight_limit_lowers_clean
        ; Alcotest.test_case "ptx allocation lowers with empty scalar file"
            `Quick test_ptx_allocation_lowers
        ; Alcotest.test_case "encode/decode roundtrip" `Quick
            test_encode_roundtrip
        ; QCheck_alcotest.to_alcotest lowering_audits_clean_random
        ] )
    ; ( "scalarization"
      , [ Alcotest.test_case "frees vector registers and occupancy" `Quick
            test_scalarization_frees_registers
        ] )
    ; ( "execution"
      , [ Alcotest.test_case "workload differential vs Refinterp" `Quick
            test_workload_differential
        ; QCheck_alcotest.to_alcotest differential_random
        ] )
    ]
