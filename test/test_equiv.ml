(* Tests for lib/equiv: the symbolic translation validator proves all
   three transformation edges on the whole workload suite (including
   spill-inserting allocations and the machine backend), refutes the
   seeded miscompile corpus with witnesses that replay as genuine
   divergences, and never reports a refutation whose witness does not
   replay. *)

module Check = Equiv.Check
module Witness = Equiv.Witness
module Corpus = Equiv.Corpus

let check = Alcotest.(check bool)

let proved (o : Check.outcome) =
  match o.Check.verdict with
  | Check.Proved -> true
  | _ -> false

let fail_outcome tag (o : Check.outcome) =
  Alcotest.failf "%s: expected proved, got %s" tag
    (Format.asprintf "%a" Check.pp_outcome o)

let require_proved tag o = if not (proved o) then fail_outcome tag o

(* ---------- acceptance sweep: every workload, every edge ---------- *)

let sweep_app (app : Workloads.App.t) =
  let abbr = app.Workloads.App.abbr in
  let block_size = app.Workloads.App.block_size in
  let k = Workloads.App.kernel app in
  let k', _ = Ptxopt.Pipeline.run ~intfold:true ~block_size k in
  require_proved (abbr ^ " opt")
    (Check.check_opt ~block_size ~left:k ~right:k' ());
  let a =
    Regalloc.Allocator.allocate ~block_size
      ~reg_limit:app.Workloads.App.default_regs k
  in
  require_proved (abbr ^ " alloc") (Check.check_alloc a);
  (* a tight budget forces spill code on every workload; the edge must
     still prove through the slot environment *)
  let tight = Regalloc.Allocator.allocate ~block_size ~reg_limit:16 k in
  check (abbr ^ " tight limit spills") true
    (Regalloc.Allocator.(tight.spilled) <> []);
  require_proved (abbr ^ " alloc/spilled") (Check.check_alloc tight);
  require_proved (abbr ^ " lower") (Check.check_lower (Machine.Lower.run a));
  require_proved (abbr ^ " lower/spilled")
    (Check.check_lower (Machine.Lower.run tight))

let test_sweep () = List.iter sweep_app Workloads.Suite.all

let test_shared_spills () =
  List.iter
    (fun abbr ->
      let app = Workloads.Suite.find abbr in
      let block_size = app.Workloads.App.block_size in
      let a =
        Regalloc.Allocator.allocate ~shared_policy:(`Spare 2048) ~block_size
          ~reg_limit:16
          (Workloads.App.kernel app)
      in
      check (abbr ^ " uses shared spills") true
        (a.Regalloc.Allocator.stats.Regalloc.Spill.num_shared > 0);
      require_proved (abbr ^ " alloc/shared-spill") (Check.check_alloc a))
    [ "CFD"; "SPMV" ]

let test_linear_scan () =
  let app = Workloads.Suite.find "HST" in
  let a =
    Regalloc.Allocator.allocate ~strategy:Regalloc.Allocator.Linear_scan
      ~block_size:app.Workloads.App.block_size ~reg_limit:16
      (Workloads.App.kernel app)
  in
  require_proved "HST alloc/linear-scan" (Check.check_alloc a)

(* ---------- corpus: seeded miscompiles must be refuted ---------- *)

let corpus_case (c : Corpus.case) () =
  let o = Corpus.outcome_of c in
  match o.Check.verdict with
  | Check.Refuted w ->
    let left, right = Corpus.runners c in
    (match Witness.replay ~left ~right w with
     | Some _ -> ()
     | None ->
       Alcotest.failf "corpus %s: witness does not replay" c.Corpus.label);
    let diags = Verify.Equiv_check.diagnostics_of o in
    check (c.Corpus.label ^ " reports " ^ c.Corpus.expect) true
      (List.exists
         (fun d ->
           d.Verify.Diagnostic.code = c.Corpus.expect
           && Verify.Diagnostic.is_error d)
         diags)
  | _ ->
    Alcotest.failf "corpus %s: expected a refutation, got %s" c.Corpus.label
      (Format.asprintf "%a" Check.pp_outcome o)

let corpus_tests =
  List.map
    (fun (c : Corpus.case) ->
      Alcotest.test_case
        (Printf.sprintf "%s refuted with %s" c.Corpus.label c.Corpus.expect)
        `Quick (corpus_case c))
    (Corpus.cases ())

(* ---------- no false refutations: every witness must diverge ---------- *)

(* Whatever the sampling salt, a witness returned by the search replays
   as a genuine divergence on the exact recorded input — a refutation is
   never an artifact of the sampler. *)
let prop_witness_replays =
  QCheck.Test.make ~count:25 ~name:"every witness replays as a divergence"
    QCheck.(pair (int_bound 1000) (int_bound 1))
    (fun (salt, which) ->
      let c = List.nth (Corpus.cases ()) which in
      let left, right = Corpus.runners c in
      let block_size, params_ty =
        match c.Corpus.subject with
        | Corpus.Opt_pair { block_size; left = k; _ } ->
          (block_size, k.Ptx.Kernel.params)
        | Corpus.Allocation a ->
          ( a.Regalloc.Allocator.block_size
          , a.Regalloc.Allocator.original.Ptx.Kernel.params )
      in
      match
        Witness.search ~left ~right ~block_size ~salt ~params_ty ~seeds:[] ()
      with
      | Some w -> Witness.replay ~left ~right w <> None
      | None -> QCheck.assume_fail ())

(* An equivalent pair must never yield a witness, whatever the salt. *)
let prop_no_witness_when_equal =
  QCheck.Test.make ~count:10 ~name:"no witness separates an identical pair"
    QCheck.(int_bound 1000)
    (fun salt ->
      let k =
        match (List.hd (Corpus.cases ())).Corpus.subject with
        | Corpus.Opt_pair { left; _ } -> left
        | Corpus.Allocation a -> a.Regalloc.Allocator.original
      in
      Witness.search ~left:(Witness.Run_kernel k)
        ~right:(Witness.Run_kernel k) ~block_size:64 ~salt
        ~params_ty:k.Ptx.Kernel.params ~seeds:[] ()
      = None)

(* A pair whose static match fails and whose right side never ends on
   any input: the bounded witness search gives up, so the verdict is
   unknown, and it says so within a second. *)
let test_endless_side_unknown () =
  let kernel loop =
    Ptx.Parser.parse_kernel_exn
      (Printf.sprintf
         {|.entry spin (
  .param .u64 out
)
{
  .reg .u32 %%r0;
  .reg .u64 %%d0;
  mov.u32 %%r0, 1;
  ld.param.u64 %%d0, [out];
  st.global.u32 [%%d0], %%r0;
%s  ret;
}|}
         (if loop then "SPIN:\n  bra SPIN;\n" else ""))
  in
  let t0 = Unix.gettimeofday () in
  let o = Check.check_opt ~block_size:64 ~left:(kernel false) ~right:(kernel true) () in
  let dt = Unix.gettimeofday () -. t0 in
  (match o.Check.verdict with
   | Check.Unknown _ -> ()
   | _ -> Alcotest.failf "expected unknown, got %s" (Format.asprintf "%a" Check.pp_outcome o));
  if dt > 1. then Alcotest.failf "the verdict took %.2f s" dt

(* ---------- intfold default and the pipeline gate ---------- *)

let test_intfold_default () =
  let app = Workloads.Suite.find "GAU" in
  let block_size = app.Workloads.App.block_size in
  let k = Workloads.App.kernel app in
  let kd, rd = Ptxopt.Pipeline.run ~block_size k in
  let ke, re = Ptxopt.Pipeline.run ~intfold:true ~block_size k in
  check "default equals explicit intfold:true" true
    (Ptx.Kernel.instr_count kd = Ptx.Kernel.instr_count ke
    && rd.Ptxopt.Pipeline.folded = re.Ptxopt.Pipeline.folded);
  let _, ro = Ptxopt.Pipeline.run ~intfold:false ~block_size k in
  check "intfold:false is an opt-out" true
    (ro.Ptxopt.Pipeline.folded <= rd.Ptxopt.Pipeline.folded)

let test_gate_rejects_refuted_edge () =
  let pair =
    List.find_map
      (fun (c : Corpus.case) ->
        match c.Corpus.subject with
        | Corpus.Opt_pair { block_size; left; right } ->
          Some (block_size, left, right)
        | _ -> None)
      (Corpus.cases ())
  in
  let block_size, left, right = Option.get pair in
  let checks =
    [ Verify.Gate.Equiv { block_size; num_blocks = None; left; right } ]
  in
  (* disabled: a no-op even on a miscompiled edge *)
  Verify.Gate.set false;
  Verify.Gate.run ~stage:"test" checks;
  Verify.Gate.set true;
  let rejected =
    match Verify.Gate.run ~stage:"test" checks with
    | () -> false
    | exception Verify.Gate.Rejected ("test", ds) ->
      List.exists (fun d -> d.Verify.Diagnostic.code = "E201") ds
  in
  Verify.Gate.clear ();
  check "armed gate rejects with E201" true rejected

let test_codes_documented () =
  List.iter
    (fun code ->
      check (code ^ " documented") true
        (Verify.Diagnostic.describe code <> "unknown diagnostic code"))
    [ "E101"; "E201"; "E301" ]

let () =
  Alcotest.run "equiv"
    [ ( "sweep"
      , [ Alcotest.test_case "all 22 workloads prove on all three edges"
            `Slow test_sweep
        ; Alcotest.test_case "shared-policy spills prove" `Quick
            test_shared_spills
        ; Alcotest.test_case "linear-scan allocations prove" `Quick
            test_linear_scan
        ] )
    ; ("corpus", corpus_tests)
    ; ( "witness"
      , [ QCheck_alcotest.to_alcotest prop_witness_replays
        ; QCheck_alcotest.to_alcotest prop_no_witness_when_equal
        ; Alcotest.test_case "an endless side is unknown within a second" `Quick
            test_endless_side_unknown
        ] )
    ; ( "wiring"
      , [ Alcotest.test_case "intfold defaults on" `Quick test_intfold_default
        ; Alcotest.test_case "gate rejects a refuted edge" `Quick
            test_gate_rejects_refuted_edge
        ; Alcotest.test_case "E-codes documented" `Quick test_codes_documented
        ] )
    ]
