(* Tests for the machine backend: lowering every workload to the
   SASS-like ISA under split vector/scalar budgets, the independent
   per-class audit, the scalarization payoff, and the
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
         (m.Machine.Lower.scalar_units <= scalar_limit))
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

(* Every app's machine program, at the default limit and at the tight
   limit 18 of the spill case above: the listing of [code] and the
   file spans and parameter slots, digested together. A change to the
   lowering's bookkeeping must leave it alone. *)
let lowering_digest = "60f59d07043378f167b36f0cbc28dc3c"

let test_lowering_pinned () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun reg_limit ->
       List.iter
         (fun (a : Workloads.App.t) ->
            let m = Machine.Lower.run (allocate_machine ~reg_limit a) in
            Buffer.add_string b
              (Printf.sprintf "%s r%d V=%d S=%d P=%d params=%s\n"
                 a.Workloads.App.abbr reg_limit m.Machine.Lower.vector_units
                 m.Machine.Lower.scalar_units m.Machine.Lower.pred_count
                 (String.concat "," (Array.to_list m.Machine.Lower.params)));
            Array.iter
              (fun ins ->
                 Buffer.add_string b (Format.asprintf "%a\n" Machine.Isa.pp_insn ins))
              m.Machine.Lower.code)
         Workloads.Suite.all)
    [ 64; 18 ];
  Alcotest.(check string)
    "lowering digest (a change meant to move the lowered programs pins the \
     new value in lowering_digest)"
    lowering_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Negative audit tests: four mutants of CFD's lowering, each breaking
   one machine-level fact, must each be reported under its own code,
   and auditing them must not raise. *)
module I = Machine.Isa

let map_srcs f (ins : I.insn) =
  let ad (x : I.addr) = { x with I.abase = f x.I.abase } in
  match ins with
  | I.Mov (ty, d, a) -> I.Mov (ty, d, f a)
  | I.Binop (op, ty, d, a, b) -> I.Binop (op, ty, d, f a, f b)
  | I.Mad (ty, d, a, b, c) -> I.Mad (ty, d, f a, f b, f c)
  | I.Unop (op, ty, d, a) -> I.Unop (op, ty, d, f a)
  | I.Cvt (dt, st, d, a) -> I.Cvt (dt, st, d, f a)
  | I.Setp (c, ty, d, a, b) -> I.Setp (c, ty, d, f a, f b)
  | I.Selp (ty, d, a, b, p) -> I.Selp (ty, d, f a, f b, p)
  | I.Ld (sp, ty, d, x) -> I.Ld (sp, ty, d, ad x)
  | I.St (sp, ty, x, v) -> I.St (sp, ty, ad x, f v)
  | (I.Bra _ | I.Bra_pred _ | I.Bar | I.Exit) as i -> i

let map_def f (ins : I.insn) =
  match ins with
  | I.Mov (ty, d, a) -> I.Mov (ty, f d, a)
  | I.Binop (op, ty, d, a, b) -> I.Binop (op, ty, f d, a, b)
  | I.Mad (ty, d, a, b, c) -> I.Mad (ty, f d, a, b, c)
  | I.Unop (op, ty, d, a) -> I.Unop (op, ty, f d, a)
  | I.Cvt (dt, st, d, a) -> I.Cvt (dt, st, f d, a)
  | I.Setp (c, ty, d, a, b) -> I.Setp (c, ty, f d, a, b)
  | I.Selp (ty, d, a, b, p) -> I.Selp (ty, f d, a, b, p)
  | I.Ld (sp, ty, d, x) -> I.Ld (sp, ty, f d, x)
  | (I.St _ | I.Bra _ | I.Bra_pred _ | I.Bar | I.Exit) as i -> i

let defines file ins =
  List.exists (fun (r : I.reg) -> r.I.file = file) (I.defs ins)

let test_audit_mutants_fire () =
  let m = Machine.Lower.run (allocate_machine (Workloads.Suite.find "CFD")) in
  let code = m.Machine.Lower.code in
  check "CFD uses the scalar file" true (m.Machine.Lower.scalar_units > 0);
  let first p =
    let rec go i =
      if i >= Array.length code then Alcotest.fail "no instruction to mutate"
      else if p i code.(i) then i
      else go (i + 1)
    in
    go 0
  in
  let mutant i ins =
    let c = Array.copy code in
    c.(i) <- ins;
    { m with Machine.Lower.code = c }
  in
  let expect name code_ (t : Machine.Lower.t) =
    match Verify.Machine_audit.check t with
    | diags ->
      let codes = List.map (fun d -> d.Verify.Diagnostic.code) diags in
      if not (List.mem code_ codes) then
        Alcotest.failf "%s: expected %s, got [%s]" name code_
          (String.concat "; " codes)
    | exception e ->
      Alcotest.failf "%s: audit raised %s" name (Printexc.to_string e)
  in
  (* a vector destination moved into the scalar file *)
  let i = first (fun _ ins -> defines I.Vector ins) in
  expect "vector register in the scalar file" "V601"
    (mutant i (map_def (fun d -> { d with I.file = I.Scalar }) code.(i)));
  (* a vector destination pushed past the per-thread budget *)
  let limit = m.Machine.Lower.alloc.A.reg_limit in
  expect "unit index past the budget" "V602"
    (mutant i (map_def (fun d -> { d with I.idx = limit }) code.(i)));
  (* one source read from a register nothing defines, on a
     fall-through path, so it is live into the instruction *)
  let fresh ty = { I.file = I.Vector; idx = m.Machine.Lower.vector_units; ty } in
  let redirect =
    map_srcs (function I.Rsrc r when r.I.file = I.Vector -> I.Rsrc (fresh r.I.ty) | s -> s)
  in
  let j =
    first (fun j ins ->
        j > 0
        && (match code.(j - 1) with I.Bra _ | I.Exit -> false | _ -> true)
        && List.exists (fun (r : I.reg) -> r.I.file = I.Vector) (I.uses ins))
  in
  expect "source redirected" "V603" (mutant j (redirect code.(j)));
  (* a scalar destination computed from a vector register *)
  let k = first (fun _ ins -> defines I.Scalar ins) in
  let vec = I.Rsrc { I.file = I.Vector; idx = 0; ty = Ptx.Types.U32 } in
  expect "scalar destination reads a vector register" "V605"
    (mutant k (map_srcs (fun _ -> vec) code.(k)))

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
        ; Alcotest.test_case "every app's lowering pinned" `Quick
            test_lowering_pinned
        ; Alcotest.test_case "audit mutants fire V601, V602, V603, V605" `Quick
            test_audit_mutants_fire
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
