(* Tests for lib/verify: every seeded known-bad subject is rejected with
   its documented code, the whole workload suite verifies clean at every
   compiler stage (pre-opt, post-opt, post-allocation), diagnostic
   rendering is stable against a golden file, the optional pipeline
   gate rejects/ignores according to its switch, and armed, it passes
   every allocation of the compile path; the ablation builds that call
   the allocator directly pass the post-alloc checks. *)

module D = Verify.Diagnostic

let check = Alcotest.(check bool)

(* ---------- corpus: one broken subject per checker ---------- *)

let corpus_case (c : Verify.Corpus.case) () =
  let diags = Verify.Corpus.diagnostics_of c in
  (* S403 is documented as a warning (the check stays armed); every
     other corpus code must be error-severity *)
  let expect_error = c.Verify.Corpus.expect <> "S403" in
  let hit =
    List.exists
      (fun d ->
         d.D.code = c.Verify.Corpus.expect && D.is_error d = expect_error)
      diags
  in
  if not hit then
    Alcotest.failf "corpus %s: expected %s %s, got:\n%s"
      c.Verify.Corpus.label
      (if expect_error then "error" else "warning")
      c.Verify.Corpus.expect (D.render diags)

let corpus_tests =
  List.map
    (fun (c : Verify.Corpus.case) ->
       Alcotest.test_case
         (Printf.sprintf "%s rejected with %s" c.Verify.Corpus.label
            c.Verify.Corpus.expect)
         `Quick (corpus_case c))
    (Verify.Corpus.cases ())

(* ---------- acceptance sweep: the suite verifies clean ---------- *)

let fail_on_errors label diags =
  match D.errors diags with
  | [] -> ()
  | errs -> Alcotest.failf "%s:\n%s" label (D.render errs)

let test_suite_clean_all_stages () =
  List.iter
    (fun (app : Workloads.App.t) ->
       let abbr = app.Workloads.App.abbr in
       let block_size = app.Workloads.App.block_size in
       let k = Workloads.App.kernel app in
       fail_on_errors (abbr ^ " pre-opt")
         (Verify.Checker.check_kernel ~block_size k);
       let k', _ = Ptxopt.Pipeline.run k in
       fail_on_errors (abbr ^ " post-opt")
         (Verify.Checker.check_kernel ~block_size k');
       let a =
         Regalloc.Allocator.allocate ~block_size
           ~reg_limit:app.Workloads.App.default_regs k
       in
       fail_on_errors (abbr ^ " post-alloc")
         (Verify.Checker.check_allocation a))
    Workloads.Suite.all

(* The armed gate on the one compile path: every app under both
   backends at its default limit and at r20 with a spare that fits no
   shared sub-stack (512 B) and one that does (8 KB) passes each edge's
   checks, lowering included. *)
let test_armed_compile_path () =
  Verify.Gate.set true;
  Fun.protect ~finally:Verify.Gate.clear (fun () ->
    List.iter
      (fun (app : Workloads.App.t) ->
         List.iter
           (fun backend ->
              List.iter
                (fun (reg_limit, shared_spare) ->
                   match
                     Crat.Compile.allocate ~backend ~shared_spare
                       ~label:app.Workloads.App.abbr
                       ~block_size:app.Workloads.App.block_size ~reg_limit
                       (Workloads.App.kernel app)
                   with
                   | (_ : Regalloc.Allocator.t) -> ()
                   | exception Verify.Gate.Rejected (stage, errs) ->
                     Alcotest.failf "%s [%s] r%d spare %d:\n%s" stage
                       (Machine.Backend.to_string backend)
                       reg_limit shared_spare (D.render errs))
                [ (app.Workloads.App.default_regs, 0); (20, 512); (20, 8192) ])
           [ Machine.Backend.Ptx; Machine.Backend.Machine ])
      Workloads.Suite.all)

(* The ablation builds that pass a knob the compile path does not carry
   (fig8's var1, abl-chunk's chunks 1 and 1000, abl-alloc's +remat),
   every app at r20, r32 and r48 with an 8 KB spare, through the
   post-alloc checks. The allocation edge is proved on every one. The
   only errors are V301 on STM and BAK under var1 at r20: a false
   positive of the verifier, which loses a reloaded value's uniformity
   (ROADMAP's "Private reloads carry the stored value"). *)
let ablation_variants =
  [ ("var1", `Expensive_first, None, false)
  ; ("chunk1", `Cheap_first, Some 1, false)
  ; ("chunk1000", `Cheap_first, Some 1000, false)
  ; ("remat", `Cheap_first, None, true)
  ]

let test_ablation_builds () =
  let errors = ref [] in
  List.iter
    (fun (app : Workloads.App.t) ->
       let abbr = app.Workloads.App.abbr in
       let block_size = app.Workloads.App.block_size in
       List.iter
         (fun (variant, spill_preference, shared_chunk, remat) ->
            List.iter
              (fun reg_limit ->
                 let case = Printf.sprintf "%s %s r%d" abbr variant reg_limit in
                 let a =
                   Regalloc.Allocator.allocate ~shared_policy:(`Spare 8192)
                     ~spill_preference ?shared_chunk ~remat ~block_size
                     ~reg_limit (Workloads.App.kernel app)
                 in
                 (match (Equiv.Check.check_alloc a).Equiv.Check.verdict with
                  | Equiv.Check.Proved -> ()
                  | _ -> Alcotest.failf "%s: allocation edge not proved" case);
                 List.iter
                   (fun c ->
                      List.iter
                        (fun (d : D.t) ->
                           errors := (case ^ " " ^ d.D.code) :: !errors)
                        (D.errors (Verify.Gate.diagnostics_of c)))
                   [ Verify.Gate.Allocation a
                   ; Verify.Gate.Sanitize
                       { block_size = Some block_size
                       ; kernel = a.Regalloc.Allocator.kernel
                       }
                   ])
              [ 20; 32; 48 ])
         ablation_variants)
    Workloads.Suite.all;
  Alcotest.(check (list string))
    "post-alloc errors"
    [ "BAK var1 r20 V301"; "STM var1 r20 V301" ]
    (List.sort_uniq compare !errors)

(* ---------- golden rendering: stable codes and ordering ---------- *)

let golden_render () =
  String.concat ""
    (List.map
       (fun (c : Verify.Corpus.case) ->
          Printf.sprintf "# %s (expect %s)\n%s\n" c.Verify.Corpus.label
            c.Verify.Corpus.expect
            (D.render (Verify.Corpus.diagnostics_of c)))
       (Verify.Corpus.cases ()))

let test_golden_rendering () =
  let actual = golden_render () in
  match Sys.getenv_opt "VERIFY_GOLDEN_WRITE" with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc actual)
  | None ->
    (* dune runtest runs in _build/default/test; dune exec in the root *)
    let path =
      List.find Sys.file_exists
        [ "golden/diagnostics.expected"; "test/golden/diagnostics.expected" ]
    in
    let expected = In_channel.with_open_text path In_channel.input_all in
    Alcotest.(check string) "diagnostic rendering" expected actual

let test_render_order_and_dedup () =
  let d1 = D.error ~instr:5 ~kernel:"k" ~code:"V201" "later" in
  let d2 = D.error ~instr:1 ~kernel:"k" ~code:"V101" "earlier" in
  let d3 = D.warning ~kernel:"k" ~code:"V112" "no location sorts last" in
  let sorted = D.sort [ d1; d3; d2; d1 ] in
  check "duplicates dropped" true (List.length sorted = 3);
  Alcotest.(check (list string))
    "instruction order, unlocated last"
    [ "V101"; "V201"; "V112" ]
    (List.map (fun d -> d.D.code) sorted)

let test_all_codes_documented () =
  List.iter
    (fun (c : Verify.Corpus.case) ->
       List.iter
         (fun (d : D.t) ->
            check
              (Printf.sprintf "code %s documented" d.D.code)
              true
              (List.mem_assoc d.D.code D.all_codes))
         (Verify.Corpus.diagnostics_of c))
    (Verify.Corpus.cases ())

(* ---------- the gate ---------- *)

let bad_kernel label =
  match
    List.find
      (fun (c : Verify.Corpus.case) -> c.Verify.Corpus.label = label)
      (Verify.Corpus.cases ())
  with
  | { Verify.Corpus.subject = Verify.Corpus.Kernel k; _ } -> k
  | _ -> assert false

let test_gate_rejects_when_armed () =
  Verify.Gate.set true;
  Fun.protect ~finally:Verify.Gate.clear (fun () ->
    check "gate armed" true (Verify.Gate.enabled ());
    match Ptxopt.Pipeline.run (bad_kernel "uninit") with
    | _ -> Alcotest.fail "armed gate let a bad kernel through"
    | exception Verify.Gate.Rejected (stage, errs) ->
      Alcotest.(check string) "rejected at the input stage" "opt:input" stage;
      check "error diagnostics carried" true (D.has_errors errs))

let test_gate_noop_when_disarmed () =
  Verify.Gate.set false;
  Fun.protect ~finally:Verify.Gate.clear (fun () ->
    let k', _ = Ptxopt.Pipeline.run (bad_kernel "uninit") in
    check "pipeline ran" true (Ptx.Kernel.instr_count k' > 0))

let test_gate_warnings_never_reject () =
  Verify.Gate.set true;
  Fun.protect ~finally:Verify.Gate.clear (fun () ->
    (* DTC carries a V403 warning; the armed gate must still pass it *)
    let app = Workloads.Suite.find "DTC" in
    Verify.Gate.run ~stage:"test"
      [ Verify.Gate.Kernel
          { block_size = Some app.Workloads.App.block_size
          ; kernel = Workloads.App.kernel app
          }
      ])

let () =
  Alcotest.run "verify"
    [ ("corpus", corpus_tests)
    ; ( "sweep"
      , [ Alcotest.test_case "suite clean at all stages" `Slow
            test_suite_clean_all_stages
        ; Alcotest.test_case "armed gate passes the compile path" `Slow
            test_armed_compile_path
        ; Alcotest.test_case "ablation builds pass the post-alloc checks" `Slow
            test_ablation_builds
        ] )
    ; ( "rendering"
      , [ Alcotest.test_case "golden file" `Quick test_golden_rendering
        ; Alcotest.test_case "order and dedup" `Quick test_render_order_and_dedup
        ; Alcotest.test_case "codes documented" `Quick test_all_codes_documented
        ] )
    ; ( "gate"
      , [ Alcotest.test_case "rejects when armed" `Quick test_gate_rejects_when_armed
        ; Alcotest.test_case "no-op when disarmed" `Quick test_gate_noop_when_disarmed
        ; Alcotest.test_case "warnings never reject" `Quick
            test_gate_warnings_never_reject
        ] )
    ]
