(* Unit and property tests for the PTX IR: types, registers,
   instructions, kernels, the builder eDSL and the printer/parser
   round-trip. *)

module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- types ---------- *)

let test_widths () =
  check_int "u32 width" 4 (T.width_bytes T.U32);
  check_int "f64 width" 8 (T.width_bytes T.F64);
  check_int "b8 width" 1 (T.width_bytes T.B8);
  check_int "u16 width" 2 (T.width_bytes T.U16)

let test_reg_classes () =
  Alcotest.(check bool) "pred class" true (T.reg_class T.Pred = T.Cpred);
  Alcotest.(check bool) "f32 is 32-bit" true (T.reg_class T.F32 = T.C32);
  Alcotest.(check bool) "u64 is 64-bit" true (T.reg_class T.U64 = T.C64);
  check_int "pred costs nothing" 0 (T.class_units T.Cpred);
  check_int "32-bit costs 1" 1 (T.class_units T.C32);
  check_int "64-bit costs 2" 2 (T.class_units T.C64)

let test_scalar_string_roundtrip () =
  List.iter
    (fun t ->
       match T.scalar_of_string (T.scalar_to_string t) with
       | Some t' -> check "scalar round trip" true (T.equal_scalar t t')
       | None -> Alcotest.failf "no parse for %s" (T.scalar_to_string t))
    T.all_scalars

(* ---------- registers ---------- *)

let test_reg_naming () =
  check_str "32-bit name" "%r5" (Ptx.Reg.name (Ptx.Reg.make 5 T.U32));
  check_str "f32 shares the 32-bit namespace" "%r5" (Ptx.Reg.name (Ptx.Reg.make 5 T.F32));
  check_str "64-bit name" "%d2" (Ptx.Reg.name (Ptx.Reg.make 2 T.U64));
  check_str "predicate name" "%p0" (Ptx.Reg.name (Ptx.Reg.make 0 T.Pred))

(* [Reg.compare] is the order of the [(id, ty)] pair under the
   polymorphic compare, which every register set and map walk keeps *)
let test_reg_compare_order () =
  let regs =
    List.concat_map
      (fun id -> List.map (fun ty -> Ptx.Reg.make id ty) T.all_scalars)
      [ 0; 1; 7; 1000 ]
  in
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            let want = compare (Ptx.Reg.id a, Ptx.Reg.ty a) (Ptx.Reg.id b, Ptx.Reg.ty b) in
            check_int
              (Ptx.Reg.name a ^ " vs " ^ Ptx.Reg.name b)
              (Int.compare want 0)
              (Int.compare (Ptx.Reg.compare a b) 0))
         regs)
    regs

let test_special_roundtrip () =
  List.iter
    (fun s ->
       match Ptx.Reg.special_of_string (Ptx.Reg.special_to_string s) with
       | Some s' -> check "special round trip" true (Ptx.Reg.equal_special s s')
       | None -> Alcotest.fail "special parse")
    [ Ptx.Reg.Tid_x; Ptx.Reg.Ctaid_x; Ptx.Reg.Ntid_x; Ptx.Reg.Nctaid_x
    ; Ptx.Reg.Laneid; Ptx.Reg.Warpid ]

(* ---------- instructions ---------- *)

let r n ty = Ptx.Reg.make n ty

let test_defs_uses () =
  let add = I.Binop (I.Add, T.U32, r 0 T.U32, I.Oreg (r 1 T.U32), I.Oreg (r 2 T.U32)) in
  check_int "binop defs" 1 (List.length (I.defs add));
  check_int "binop uses" 2 (List.length (I.uses add));
  let st =
    I.St (T.Global, T.F32, { I.base = I.Oreg (r 3 T.U64); offset = 4 }, I.Oreg (r 4 T.F32))
  in
  check_int "store defs" 0 (List.length (I.defs st));
  check_int "store uses addr+value" 2 (List.length (I.uses st));
  let bra = I.Bra_pred (r 5 T.Pred, true, "L") in
  check "branch uses its predicate" true
    (List.exists (Ptx.Reg.equal (r 5 T.Pred)) (I.uses bra))

let test_control_properties () =
  check "bra is control" true (I.is_control (I.Bra "L"));
  check "bra does not fall through" false (I.falls_through (I.Bra "L"));
  check "conditional falls through" true
    (I.falls_through (I.Bra_pred (r 0 T.Pred, true, "L")));
  check "ret does not fall through" false (I.falls_through I.Ret);
  check "barrier is not control" false (I.is_control I.Bar_sync);
  Alcotest.(check (option string))
    "branch target" (Some "L")
    (I.branch_target (I.Bra "L"))

let test_map_def_vs_map_regs () =
  (* add %r0, %r0, 1 : map_def must only touch the destination *)
  let i = I.Binop (I.Add, T.U32, r 0 T.U32, I.Oreg (r 0 T.U32), I.Oimm 1L) in
  let renamed = I.map_def (fun _ -> r 9 T.U32) i in
  (match renamed with
   | I.Binop (I.Add, T.U32, d, I.Oreg u, I.Oimm 1L) ->
     check_int "def renamed" 9 (Ptx.Reg.id d);
     check_int "use untouched" 0 (Ptx.Reg.id u)
   | _ -> Alcotest.fail "unexpected shape");
  let all = I.map_regs (fun _ -> r 9 T.U32) i in
  match all with
  | I.Binop (I.Add, T.U32, d, I.Oreg u, I.Oimm 1L) ->
    check_int "map_regs def" 9 (Ptx.Reg.id d);
    check_int "map_regs use" 9 (Ptx.Reg.id u)
  | _ -> Alcotest.fail "unexpected shape"

let test_classify () =
  check "div is heavy" true
    (I.classify (I.Binop (I.Div, T.U32, r 0 T.U32, I.Oimm 1L, I.Oimm 1L)) = I.Alu_heavy);
  check "sqrt is sfu" true
    (I.classify (I.Unop (I.Sqrt, T.F32, r 0 T.F32, I.Ofimm 1.)) = I.Sfu);
  check "global load" true
    (I.classify (I.Ld (T.Global, T.F32, r 0 T.F32, { I.base = I.Oimm 0L; offset = 0 }))
     = I.Mem_global);
  check "local store" true
    (I.classify (I.St (T.Local, T.U32, { I.base = I.Oimm 0L; offset = 0 }, I.Oimm 0L))
     = I.Mem_local)

(* ---------- kernels & validation ---------- *)

let trivial_kernel () =
  let b = B.create "k" in
  let out = B.param b "out" T.U64 in
  let tid = B.global_tid_x b in
  let base = B.ld_param b T.U64 out in
  let bytes = B.mul b T.U32 (B.reg tid) (B.imm 4) in
  let o = B.cvt b T.U64 T.U32 (B.reg bytes) in
  let addr = B.add b T.U64 (B.reg base) (B.reg o) in
  B.st b T.Global T.U32 (B.reg addr) 0 (B.reg tid);
  B.finish b

let test_kernel_accessors () =
  let k = trivial_kernel () in
  check "validates" true (Result.is_ok (Ptx.Kernel.validate k));
  check_int "no shared" 0 (Ptx.Kernel.shared_bytes k);
  check_int "no local" 0 (Ptx.Kernel.local_bytes k);
  check "has instructions" true (Ptx.Kernel.instr_count k > 5);
  check "register demand positive" true (Ptx.Kernel.register_demand k > 3);
  check "fresh base above all ids" true
    (Ptx.Reg.Set.for_all
       (fun reg -> Ptx.Reg.id reg < Ptx.Kernel.fresh_reg_base k)
       (Ptx.Kernel.registers k))

let test_validate_rejects_unknown_label () =
  let k = trivial_kernel () in
  let bad = { k with Ptx.Kernel.body = Array.append k.Ptx.Kernel.body [| Ptx.Kernel.I (I.Bra "nowhere") |] } in
  check "unknown label rejected" true (Result.is_error (Ptx.Kernel.validate bad))

let test_validate_rejects_type_mismatch () =
  let k = trivial_kernel () in
  (* mov.u64 into a 32-bit register *)
  let bad_instr = I.Mov (T.U64, r 0 T.U32, I.Oimm 0L) in
  let bad = { k with Ptx.Kernel.body = Array.append [| Ptx.Kernel.I bad_instr |] k.Ptx.Kernel.body } in
  check "width mismatch rejected" true (Result.is_error (Ptx.Kernel.validate bad))

let test_validate_rejects_bad_setp () =
  let k = trivial_kernel () in
  let bad_instr = I.Setp (I.Lt, T.U32, r 0 T.U32, I.Oimm 0L, I.Oimm 1L) in
  let bad = { k with Ptx.Kernel.body = Array.append [| Ptx.Kernel.I bad_instr |] k.Ptx.Kernel.body } in
  check "setp into non-predicate rejected" true (Result.is_error (Ptx.Kernel.validate bad))

let test_validate_rejects_duplicate_label () =
  let k = trivial_kernel () in
  let bad =
    { k with
      Ptx.Kernel.body =
        Array.append [| Ptx.Kernel.L "X"; Ptx.Kernel.L "X" |] k.Ptx.Kernel.body
    }
  in
  check "duplicate label rejected" true (Result.is_error (Ptx.Kernel.validate bad))

let test_validate_rejects_undeclared_symbol () =
  let b = B.create "k" in
  let _ = B.param b "out" T.U64 in
  B.emit b (I.St (T.Shared, T.U32, { I.base = I.Osym "ghost"; offset = 0 }, I.Oimm 0L));
  (try
     let _ = B.finish b in
     Alcotest.fail "undeclared symbol accepted"
   with Invalid_argument _ -> ())

(* ---------- builder ---------- *)

let test_builder_loop_shape () =
  let b = B.create "loop" in
  let _ = B.param b "out" T.U64 in
  B.for_loop b ~from:(B.imm 0) ~below:(B.imm 10) ~step:2 (fun i ->
    ignore (B.add b T.U32 (B.reg i) (B.imm 1)));
  let k = B.finish b in
  let labels = Ptx.Kernel.labels k in
  check_int "head and exit labels" 2 (List.length labels);
  (* one conditional branch out, one back edge *)
  let instrs = Ptx.Kernel.instrs k in
  check_int "one conditional branch" 1
    (List.length
       (List.filter
          (fun i ->
             match i with
             | I.Bra_pred _ -> true
             | _ -> false)
          instrs));
  check_int "one back edge" 1
    (List.length
       (List.filter
          (fun i ->
             match i with
             | I.Bra _ -> true
             | _ -> false)
          instrs))

let test_builder_appends_ret () =
  let b = B.create "noret" in
  let _ = B.param b "out" T.U64 in
  ignore (B.mov b T.U32 (B.imm 1));
  let k = B.finish b in
  match k.Ptx.Kernel.body.(Array.length k.Ptx.Kernel.body - 1) with
  | Ptx.Kernel.I I.Ret -> ()
  | _ -> Alcotest.fail "finish must append ret"

let test_builder_fresh_distinct () =
  let b = B.create "fresh" in
  let r1 = B.fresh b T.U32 in
  let r2 = B.fresh b T.F32 in
  let r3 = B.fresh b T.U64 in
  check "distinct ids" true
    (Ptx.Reg.id r1 <> Ptx.Reg.id r2 && Ptx.Reg.id r2 <> Ptx.Reg.id r3)

(* ---------- printer / parser ---------- *)

let test_paper_listing_roundtrip () =
  (* the paper's Listing 2 (native PTX kernel), adapted to our syntax *)
  let src =
    {|.entry kernel (
  .param .u64 output
)
{
  .reg .u32 %r0, %r1, %r2, %r3, %r4;
  mov.u32 %r0, %tid.x;
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mul.lo.u32 %r3, %r2, %r1;
  add.u32 %r4, %r0, %r3;
  ret;
}|}
  in
  let k = Ptx.Parser.parse_kernel_exn src in
  check_int "five instructions + ret" 6 (Ptx.Kernel.instr_count k);
  check_str "kernel name" "kernel" k.Ptx.Kernel.name;
  let printed = Ptx.Printer.kernel_to_string k in
  let k2 = Ptx.Parser.parse_kernel_exn printed in
  check_str "print-parse fixpoint" printed (Ptx.Printer.kernel_to_string k2)

let test_spill_listing_roundtrip () =
  (* the paper's Listing 4 shape: local spill stack + addressing register *)
  let src =
    {|.entry kernel (
  .param .u64 output
)
{
  .local .align 4 .b8 SpillStack[4];
  .reg .u64 %d0;
  .reg .u32 %r0, %r1;
  mov.u32 %r0, %tid.x;
  mov.u32 %r1, %ctaid.x;
  mov.u64 %d0, SpillStack;
  st.local.u32 [%d0], %r0;
  mov.u32 %r0, %ntid.x;
  mul.lo.u32 %r1, %r1, %r0;
  ld.local.u32 %r1, [%d0];
  add.u32 %r0, %r0, %r1;
  ret;
}|}
  in
  let k = Ptx.Parser.parse_kernel_exn src in
  check_int "local stack bytes" 4 (Ptx.Kernel.local_bytes k);
  let printed = Ptx.Printer.kernel_to_string k in
  check "reparses" true (Result.is_ok (Ptx.Parser.parse_kernel printed))

let test_parser_rejects_garbage () =
  check "garbage" true (Result.is_error (Ptx.Parser.parse_kernel "not ptx at all"));
  check "missing brace" true
    (Result.is_error (Ptx.Parser.parse_kernel ".entry k ( ) { mov.u32 %r0, 1;"));
  check "unknown opcode" true
    (Result.is_error
       (Ptx.Parser.parse_kernel
          ".entry k ( ) { .reg .u32 %r0; frobnicate.u32 %r0, 1; }"))

let test_address_offset_roundtrip () =
  let src =
    {|.entry k (
  .param .u64 p
)
{
  .reg .u64 %d0;
  .reg .u32 %r0;
  ld.param.u64 %d0, [p];
  ld.global.u32 %r0, [%d0+12];
  st.global.u32 [%d0+8], %r0;
  ret;
}|}
  in
  let k = Ptx.Parser.parse_kernel_exn src in
  let offsets =
    List.filter_map
      (fun i ->
         match i with
         | I.Ld (T.Global, _, _, a) | I.St (T.Global, _, a, _) -> Some a.I.offset
         | _ -> None)
      (Ptx.Kernel.instrs k)
  in
  Alcotest.(check (list int)) "offsets" [ 12; 8 ] offsets

let test_printer_idempotent () =
  let k = Workloads.App.kernel (Workloads.Suite.find "FDTD") in
  let s1 = Ptx.Printer.kernel_to_string k in
  let s2 = Ptx.Printer.kernel_to_string (Ptx.Parser.parse_kernel_exn s1) in
  let s3 = Ptx.Printer.kernel_to_string (Ptx.Parser.parse_kernel_exn s2) in
  check_str "printing is a fixpoint" s2 s3

let test_negative_and_float_immediates () =
  let src =
    {|.entry k (
  .param .u64 out
)
{
  .reg .u32 %r0;
  .reg .f32 %r1, %r2;
  add.u32 %r0, %r0, -5;
  mov.f32 %r1, 2.5;
  mad.lo.f32 %r2, %r1, 1.5e-3, 0.125;
  ret;
}|}
  in
  let k = Ptx.Parser.parse_kernel_exn src in
  let found_neg = ref false and found_exp = ref false in
  List.iter
    (fun i ->
       match i with
       | I.Binop (I.Add, T.U32, _, _, I.Oimm v) when Int64.equal v (-5L) ->
         found_neg := true
       | I.Mad (T.F32, _, _, I.Ofimm f, _) when abs_float (f -. 1.5e-3) < 1e-12 ->
         found_exp := true
       | _ -> ())
    (Ptx.Kernel.instrs k);
  check "negative immediate parsed" true !found_neg;
  check "exponent float parsed" true !found_exp

let test_multi_decl_roundtrip () =
  let b = B.create "decls" in
  let _ = B.param b "out" T.U64 in
  let _ = B.decl_shared b "tile" T.F32 64 in
  let _ = B.decl_shared b "flags" T.U32 16 in
  let _ = B.decl_local b "scratch" T.F64 4 in
  ignore (B.mov b T.U32 (B.imm 0));
  let k = B.finish b in
  let s = Ptx.Printer.kernel_to_string k in
  let k2 = Ptx.Parser.parse_kernel_exn s in
  check_int "shared bytes survive" (Ptx.Kernel.shared_bytes k) (Ptx.Kernel.shared_bytes k2);
  check_int "local bytes survive" (Ptx.Kernel.local_bytes k) (Ptx.Kernel.local_bytes k2);
  check_int "three declarations" 3 (List.length k2.Ptx.Kernel.decls)

let test_parser_comments_and_crlf () =
  let src =
    ".entry k ( // params follow
  .param .u64 out
)
{
  // a comment line
  .reg .u32 %r0;
  mov.u32 %r0, 3; // trailing comment
  ret;
}"
  in
  let k = Ptx.Parser.parse_kernel_exn src in
  check_int "two instructions" 2 (Ptx.Kernel.instr_count k)

let test_selp_pred_roundtrip () =
  let b = B.create "selp" in
  let out = B.param b "out" T.U64 in
  let tid = B.special b Ptx.Reg.Tid_x in
  let p = B.setp b I.Ge T.U32 (B.reg tid) (B.imm 16) in
  let a = B.mov b T.F32 (B.fimm 1.25) in
  let c = B.mov b T.F32 (B.fimm 2.5) in
  let v = B.selp b T.F32 (B.reg a) (B.reg c) p in
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.F32 (B.reg base) 0 (B.reg v);
  let k = B.finish b in
  let s = Ptx.Printer.kernel_to_string k in
  let k2 = Ptx.Parser.parse_kernel_exn s in
  check_str "selp/setp round-trip" s (Ptx.Printer.kernel_to_string k2)

(* ---------- printed text ---------- *)

(* Every constructor and operator of the instruction syntax, with the
   float immediates whose spelling is easiest to get wrong: negative
   zero, subnormals, integer-valued floats, nan and the infinities. *)
let syntax_kernel =
  let f i = r i T.F32 and d i = r i T.F64 and u i = r i T.U32 and p i = r i T.Pred in
  let fl x = I.Ofimm x in
  let floats =
    [ -0.; 0.; 4.9e-324; 1e-310; 3.; -1024.; 0.1; 1e300; nan; infinity
    ; neg_infinity ]
  in
  let body =
    List.mapi (fun i x -> I.Mov (T.F64, d i, fl x)) floats
    @ [ I.Mov (T.U32, u 0, I.Oimm (-5L)); I.Mov (T.S64, r 1 T.S64, I.Oimm Int64.min_int) ]
    @ List.map
        (fun op -> I.Binop (op, T.F32, f 2, I.Oreg (f 3), fl (-0.)))
        [ I.Add; I.Sub; I.Mul_lo; I.Div; I.Rem; I.Min; I.Max; I.And; I.Or; I.Xor
        ; I.Shl; I.Shr ]
    @ List.map
        (fun op -> I.Unop (op, T.F32, f 4, fl 2.))
        [ I.Neg; I.Not; I.Abs; I.Sqrt; I.Rcp; I.Ex2; I.Lg2 ]
    @ List.map
        (fun c -> I.Setp (c, T.F64, p 0, I.Oreg (d 5), fl 1e-310))
        [ I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge ]
    @ List.map
        (fun s -> I.Mov (T.U32, u 6, I.Ospecial s))
        Ptx.Reg.
          [ Tid_x; Tid_y; Ctaid_x; Ctaid_y; Ntid_x; Ntid_y; Nctaid_x; Nctaid_y
          ; Laneid; Warpid ]
    @ [ I.Mad (T.F32, f 7, I.Oreg (f 8), fl 0.5, fl nan)
      ; I.Cvt (T.F64, T.F32, d 9, I.Oreg (f 7))
      ; I.Selp (T.F32, f 10, fl infinity, fl (-3.), p 0)
      ; I.Ld (T.Param, T.U64, r 11 T.U64, { I.base = I.Oparam "out"; offset = 0 })
      ; I.Mov (T.U64, r 12 T.U64, I.Osym "stack")
      ; I.Ld (T.Local, T.F32, f 13, { I.base = I.Osym "stack"; offset = 8 })
      ; I.St (T.Shared, T.F32, { I.base = I.Oreg (u 0); offset = 0 }, fl (-0.))
      ; I.St (T.Global, T.F64, { I.base = I.Oreg (r 11 T.U64); offset = 16 }, fl 4.9e-324)
      ; I.Bra_pred (p 0, true, "L1")
      ; I.Bra_pred (p 0, false, "L1")
      ; I.Bar_sync
      ; I.Bra "L1"
      ]
  in
  { Ptx.Kernel.name = "syntax"
  ; params = [ ("out", T.U64); ("n", T.U32) ]
  ; decls =
      [ { Ptx.Kernel.dname = "stack"; dspace = T.Local; delem = T.F32; dcount = 4; dalign = 4 }
      ; { dname = "tile"; dspace = T.Shared; delem = T.U32; dcount = 64; dalign = 16 }
      ]
  ; body = Array.of_list (List.map (fun i -> Ptx.Kernel.I i) body @ [ Ptx.Kernel.L "L1"; I I.Ret ])
  }

(* The 22 apps as built (SSA), after the cleanup pipeline, at the
   default-register allocation and at r20 with an 8 KB shared spare. *)
let app_kernels () =
  let alloc = function Ok a -> [ a.Regalloc.Allocator.kernel ] | Error _ -> [] in
  List.concat_map
    (fun app ->
       let ssa, opt, dflt = Crat.Compile.stages app in
       let _, _, r20 = Crat.Compile.stages ~shared_spare:8192 ~regs:20 app in
       (ssa :: opt :: alloc dflt) @ alloc r20)
    Workloads.Suite.all

(* The verify and equiv corpora's kernels, both sides of each edge. *)
let corpus_kernels () =
  let allocation (a : Regalloc.Allocator.t) =
    [ a.Regalloc.Allocator.virtual_kernel; a.Regalloc.Allocator.kernel ]
  in
  List.concat_map
    (fun (c : Verify.Corpus.case) ->
       match c.Verify.Corpus.subject with
       | Verify.Corpus.Kernel k -> [ k ]
       | Verify.Corpus.Allocation a -> allocation a)
    (Verify.Corpus.cases ())
  @ List.concat_map
      (fun (c : Equiv.Corpus.case) ->
         match c.Equiv.Corpus.subject with
         | Equiv.Corpus.Opt_pair { left; right; _ } -> [ left; right ]
         | Equiv.Corpus.Allocation a -> allocation a)
      (Equiv.Corpus.cases ())

(* The text of every printed kernel and of each of its instructions
   ([Instr.to_string], the diagnostics' spelling), digested together.
   A change to the printers must leave it alone: kernel text is what
   every allocation and launch key digests. *)
let printed_digest = "bb972fed8df4a2fe32086e042fec664a"

let test_printed_text_pinned () =
  let apps = app_kernels () in
  check_int "every app build printed" (4 * List.length Workloads.Suite.all)
    (List.length apps);
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun k ->
       Buffer.add_string b (Ptx.Printer.kernel_to_string k);
       List.iter
         (fun i ->
            let s = I.to_string i in
            if not (String.equal s (Format.asprintf "%a" I.pp i)) then
              Alcotest.failf "Instr.pp and Instr.to_string differ on %s" s;
            Buffer.add_string b s;
            Buffer.add_char b '\n')
         (Ptx.Kernel.instrs k))
    (apps @ corpus_kernels () @ [ syntax_kernel ]);
  check_str
    "printed text digest (a change meant to move the PTX spelling pins the new value here)"
    printed_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* qcheck: print/parse round-trip over random kernels *)
let prop_roundtrip =
  QCheck.Test.make ~count:60 ~name:"printer/parser round-trip"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let s = Ptx.Printer.kernel_to_string k in
      let k2 = Ptx.Parser.parse_kernel_exn s in
      String.equal s (Ptx.Printer.kernel_to_string k2))

(* the static verifier (lib/verify) agrees across the text round-trip:
   whenever a kernel verifies clean, the reparse of its printing must
   too — any ill-typedness introduced by the printer or parser would
   surface as a fresh error diagnostic here *)
let prop_roundtrip_verifies_clean =
  QCheck.Test.make ~count:60
    ~name:"round-tripped kernels verify as clean as the source"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let clean k = Verify.Diagnostic.errors (Verify.Checker.check_kernel k) = [] in
      (not (clean k))
      || clean (Ptx.Parser.parse_kernel_exn (Ptx.Printer.kernel_to_string k)))

let prop_generated_valid =
  QCheck.Test.make ~count:60 ~name:"generated kernels validate"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      Result.is_ok (Ptx.Kernel.validate k))

let prop_defs_subset_registers =
  QCheck.Test.make ~count:40 ~name:"defs/uses within kernel register set"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let all = Ptx.Kernel.registers k in
      List.for_all
        (fun i ->
           List.for_all (fun reg -> Ptx.Reg.Set.mem reg all) (I.defs i)
           && List.for_all (fun reg -> Ptx.Reg.Set.mem reg all) (I.uses i))
        (Ptx.Kernel.instrs k))

let () =
  Alcotest.run "ptx"
    [ ( "types"
      , [ Alcotest.test_case "widths" `Quick test_widths
        ; Alcotest.test_case "register classes" `Quick test_reg_classes
        ; Alcotest.test_case "scalar string round-trip" `Quick test_scalar_string_roundtrip
        ] )
    ; ( "registers"
      , [ Alcotest.test_case "naming" `Quick test_reg_naming
        ; Alcotest.test_case "special round-trip" `Quick test_special_roundtrip
        ; Alcotest.test_case "compare is the (id, ty) order" `Quick test_reg_compare_order
        ] )
    ; ( "instructions"
      , [ Alcotest.test_case "defs and uses" `Quick test_defs_uses
        ; Alcotest.test_case "control properties" `Quick test_control_properties
        ; Alcotest.test_case "map_def vs map_regs" `Quick test_map_def_vs_map_regs
        ; Alcotest.test_case "latency classes" `Quick test_classify
        ] )
    ; ( "kernels"
      , [ Alcotest.test_case "accessors" `Quick test_kernel_accessors
        ; Alcotest.test_case "rejects unknown label" `Quick test_validate_rejects_unknown_label
        ; Alcotest.test_case "rejects type mismatch" `Quick test_validate_rejects_type_mismatch
        ; Alcotest.test_case "rejects bad setp" `Quick test_validate_rejects_bad_setp
        ; Alcotest.test_case "rejects duplicate label" `Quick test_validate_rejects_duplicate_label
        ; Alcotest.test_case "rejects undeclared symbol" `Quick test_validate_rejects_undeclared_symbol
        ] )
    ; ( "builder"
      , [ Alcotest.test_case "loop shape" `Quick test_builder_loop_shape
        ; Alcotest.test_case "appends ret" `Quick test_builder_appends_ret
        ; Alcotest.test_case "fresh registers distinct" `Quick test_builder_fresh_distinct
        ] )
    ; ( "text"
      , [ Alcotest.test_case "paper listing 2" `Quick test_paper_listing_roundtrip
        ; Alcotest.test_case "paper listing 4 (spills)" `Quick test_spill_listing_roundtrip
        ; Alcotest.test_case "rejects garbage" `Quick test_parser_rejects_garbage
        ; Alcotest.test_case "address offsets" `Quick test_address_offset_roundtrip
        ; Alcotest.test_case "printer idempotent" `Quick test_printer_idempotent
        ; Alcotest.test_case "negative/float immediates" `Quick
            test_negative_and_float_immediates
        ; Alcotest.test_case "multiple declarations" `Quick test_multi_decl_roundtrip
        ; Alcotest.test_case "comments and CRLF" `Quick test_parser_comments_and_crlf
        ; Alcotest.test_case "selp/setp round-trip" `Quick test_selp_pred_roundtrip
        ; Alcotest.test_case "printed text pinned" `Quick test_printed_text_pinned
        ] )
    ; ( "properties"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip
          ; prop_roundtrip_verifies_clean
          ; prop_generated_valid
          ; prop_defs_subset_registers
          ] )
    ]
