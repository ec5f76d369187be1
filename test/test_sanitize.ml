(* Tests for the hybrid memory-safety sanitizer: the S-code clinic
   kernel renders stably against a golden file, the whole workload
   suite proves clean at every compiler stage with a high discharge
   rate, the sanitized suite replay observes no violation, the
   emulator's per-pc sanitizer counters equal the reference
   interpreter's on every workload build, and the corpus'
   data-dependent out-of-bounds store — unprovable statically — is
   caught dynamically at its exact pc by both. *)

module D = Verify.Diagnostic
module San = Verify.Sanitize
module Sancheck = Gpusim.Sancheck
module App = Workloads.App

let r id ty = Ptx.Reg.make id ty
let i x = Ptx.Kernel.I x

(* One kernel emitting every S-code: a uniform shared store past its
   array (S401), a local store past the frame (S402), and a
   parameter-indexed shared store (S403). *)
let clinic () =
  let v = r 0 Ptx.Types.U32
  and idx = r 1 Ptx.Types.U32
  and idx64 = r 2 Ptx.Types.U64
  and off = r 3 Ptx.Types.U64
  and base = r 4 Ptx.Types.U64
  and addr = r 5 Ptx.Types.U64 in
  { Ptx.Kernel.name = "clinic"
  ; params = [ ("idx", Ptx.Types.U32) ]
  ; decls =
      [ { Ptx.Kernel.dname = "sdata"
        ; dspace = Ptx.Types.Shared
        ; delem = Ptx.Types.B32
        ; dcount = 8
        ; dalign = 4
        }
      ; { Ptx.Kernel.dname = "lbuf"
        ; dspace = Ptx.Types.Local
        ; delem = Ptx.Types.B32
        ; dcount = 4
        ; dalign = 4
        }
      ]
  ; body =
      [| i (Ptx.Instr.Mov (Ptx.Types.U32, v, Ptx.Instr.Oimm 7L))
       ; i
           (Ptx.Instr.St
              ( Ptx.Types.Shared, Ptx.Types.U32
              , { Ptx.Instr.base = Ptx.Instr.Osym "sdata"; offset = 64 }
              , Ptx.Instr.Oreg v ))
       ; i
           (Ptx.Instr.St
              ( Ptx.Types.Local, Ptx.Types.U32
              , { Ptx.Instr.base = Ptx.Instr.Osym "lbuf"; offset = 16 }
              , Ptx.Instr.Oreg v ))
       ; i
           (Ptx.Instr.Ld
              ( Ptx.Types.Param, Ptx.Types.U32, idx
              , { Ptx.Instr.base = Ptx.Instr.Oparam "idx"; offset = 0 } ))
       ; i (Ptx.Instr.Cvt (Ptx.Types.U64, Ptx.Types.U32, idx64, Ptx.Instr.Oreg idx))
       ; i
           (Ptx.Instr.Binop
              ( Ptx.Instr.Mul_lo, Ptx.Types.U64, off, Ptx.Instr.Oreg idx64
              , Ptx.Instr.Oimm 4L ))
       ; i (Ptx.Instr.Mov (Ptx.Types.U64, base, Ptx.Instr.Osym "sdata"))
       ; i
           (Ptx.Instr.Binop
              ( Ptx.Instr.Add, Ptx.Types.U64, addr, Ptx.Instr.Oreg base
              , Ptx.Instr.Oreg off ))
       ; i
           (Ptx.Instr.St
              ( Ptx.Types.Shared, Ptx.Types.U32
              , { Ptx.Instr.base = Ptx.Instr.Oreg addr; offset = 0 }
              , Ptx.Instr.Oreg v ))
       ; i Ptx.Instr.Ret
      |]
  }

(* ---------- golden rendering ---------- *)

let test_clinic_golden () =
  let report = San.sanitize_kernel ~block_size:64 (clinic ()) in
  let d = report.San.discharge in
  let actual =
    Printf.sprintf "# clinic: %d access(es), %d safe, %d oob, %d residual\n%s\n"
      d.San.total d.San.safe d.San.oob d.San.residual
      (D.render report.San.diags)
  in
  match Sys.getenv_opt "SANITIZE_GOLDEN_WRITE" with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc actual)
  | None ->
    let path =
      List.find Sys.file_exists
        [ "golden/sanitize.expected"; "test/golden/sanitize.expected" ]
    in
    let expected = In_channel.with_open_text path In_channel.input_all in
    Alcotest.(check string) "sanitize rendering" expected actual

let test_clinic_all_codes () =
  let diags = San.check_kernel ~block_size:64 (clinic ()) in
  List.iter
    (fun code ->
       Alcotest.(check bool)
         (Printf.sprintf "clinic emits %s" code)
         true
         (List.exists (fun d -> d.D.code = code) diags))
    [ "S401"; "S402"; "S403" ];
  List.iter
    (fun (d : D.t) ->
       Alcotest.(check bool)
         (Printf.sprintf "code %s documented" d.D.code)
         true
         (List.mem_assoc d.D.code D.all_codes))
    diags

(* ---------- suite sweep: static proofs at every stage ---------- *)

let test_suite_sweep () =
  let total = ref 0 and safe = ref 0 in
  List.iter
    (fun (app : Workloads.App.t) ->
       List.iter
         (fun (sr : Crat.Sanitize.stage_report) ->
            let r =
              match sr.Crat.Sanitize.report with
              | Ok r -> r
              | Error msg ->
                Alcotest.failf "%s %s: %s" app.Workloads.App.abbr
                  sr.Crat.Sanitize.stage msg
            in
            let d = r.San.discharge in
            total := !total + d.San.total;
            safe := !safe + d.San.safe;
            match D.errors r.San.diags with
            | [] -> ()
            | errs ->
              Alcotest.failf "%s %s:\n%s" app.Workloads.App.abbr
                sr.Crat.Sanitize.stage (D.render errs))
         (Crat.Sanitize.stages app))
    Workloads.Suite.all;
  let pct = 100.0 *. float_of_int !safe /. float_of_int (max 1 !total) in
  if pct < 90.0 then
    Alcotest.failf "suite discharge %.1f%% below the 90%% bar (%d/%d)" pct
      !safe !total

(* ---------- suite replay: armed residue, no violations ---------- *)

let test_suite_validate () =
  List.iter
    (fun (app : Workloads.App.t) ->
       let dyn = Crat.Sanitize.validate app in
       match dyn.Crat.Sanitize.failures with
       | [] -> ()
       | fs ->
         Alcotest.failf "%s: %s" app.Workloads.App.abbr
           (String.concat "; " fs))
    Workloads.Suite.all

(* ---------- the emulator against the reference interpreter ---------- *)

(* the interpreter [Crat.Sanitize.validate] runs, and its oracle *)
let emulator rt l = ignore (Gpusim.Emulator.run ~sanitize:rt l)
let reference rt l = ignore (Testsupport.Refinterp.run ~sanitize:rt l)

(* Block 0 of every workload's default input, unallocated and at r20
   with a 512 B and an 8 KB spare (the latter moves spills into the
   shared sub-stack), each under its own forced mask so every lane
   access pays a probe: the emulator, which [Crat.Sanitize.validate]
   runs, and the reference interpreter must count the same lanes seen,
   checked and violating, and the same first violation, at every pc. *)
let test_counters_match_reference () =
  List.iter
    (fun (app : App.t) ->
       let input = { (App.default_input app) with App.num_blocks = 1 } in
       let block_size = app.App.block_size in
       let alloc spare =
         (Regalloc.Allocator.allocate ~shared_policy:(`Spare spare) ~block_size
            ~reg_limit:20 (App.kernel app))
           .Regalloc.Allocator.kernel
       in
       List.iter
         (fun (label, kernel) ->
            let mask =
              San.mask ~force:true
                (San.sanitize_kernel ~block_size ~num_blocks:1
                   ~params:(App.int_params app input) kernel)
            in
            let counts run =
              let rt = Sancheck.runtime mask in
              run rt (App.launch app ~kernel ~input ());
              List.map
                (fun (pc, (s : Sancheck.stat)) ->
                   ( pc
                   , ( s.Sancheck.seen, s.Sancheck.checked
                     , s.Sancheck.violations, s.Sancheck.first ) ))
                (Sancheck.stats rt.Sancheck.counters)
            in
            let fast = counts emulator and reference = counts reference in
            if fast <> reference then
              let only a b =
                List.filter (fun e -> not (List.mem e b)) a
                |> List.map (fun (pc, (seen, checked, violations, _)) ->
                  Printf.sprintf "pc %d %d/%d/%d" pc seen checked violations)
                |> String.concat "; "
              in
              Alcotest.failf
                "%s %s: per-pc sanitizer counters differ (seen/checked/\
                 violating or the first violation): emulator [%s], \
                 reference [%s]"
                app.App.abbr label (only fast reference) (only reference fast))
         [ ("default", App.kernel app)
         ; ("r20 spare 512", alloc 512)
         ; ("r20 spare 8192", alloc 8192)
         ])
    Workloads.Suite.all

(* ---------- dynamic catch of the unprovable corpus store ---------- *)

let test_dynamic_catch () =
  let k =
    match
      List.find
        (fun (c : Verify.Corpus.case) -> c.Verify.Corpus.label = "unprovable")
        (Verify.Corpus.cases ())
    with
    | { Verify.Corpus.subject = Verify.Corpus.Kernel k; _ } -> k
    | _ -> Alcotest.fail "unprovable corpus case is not a kernel"
  in
  let report = San.sanitize_kernel ~block_size:64 k in
  let s403_pc =
    match
      List.find_opt (fun (d : D.t) -> d.D.code = "S403") report.San.diags
    with
    | Some { D.instr = Some pc; _ } -> pc
    | _ -> Alcotest.fail "no located S403 diagnostic on the corpus kernel"
  in
  List.iter
    (fun (name, run) ->
       let rt = Sancheck.runtime (San.mask report) in
       run rt
         (Gpusim.Launch.make ~kernel:k ~block_size:64 ~num_blocks:1
            ~params:[ ("idx", Gpusim.Value.of_int 100) ]
            (Gpusim.Memory.create ()));
       let c = rt.Sancheck.counters in
       Alcotest.(check bool) (name ^ ": violations recorded") true
         (Sancheck.violations c > 0);
       match Sancheck.first_violation c with
       | None -> Alcotest.failf "%s: no violation witness" name
       | Some v ->
         Alcotest.(check int) (name ^ ": caught at the S403 pc") s403_pc
           v.Sancheck.v_pc;
         (* idx=100 words = byte offset 400, well past the 32B array *)
         Alcotest.(check int64) (name ^ ": witness offset") 400L
           v.Sancheck.v_addr)
    [ ("emulator", emulator); ("reference", reference) ]

let () =
  Alcotest.run "sanitize"
    [ ( "clinic"
      , [ Alcotest.test_case "golden file" `Quick test_clinic_golden
        ; Alcotest.test_case "every S-code fires and is documented" `Quick
            test_clinic_all_codes
        ] )
    ; ( "suite"
      , [ Alcotest.test_case "zero S-errors at every stage, >=90% proven"
            `Slow test_suite_sweep
        ; Alcotest.test_case "sanitized replay sees no violation" `Slow
            test_suite_validate
        ; Alcotest.test_case "emulator counters match the reference" `Slow
            test_counters_match_reference
        ] )
    ; ( "dynamic"
      , [ Alcotest.test_case "unprovable store caught at its pc" `Quick
            test_dynamic_catch
        ] )
    ]
