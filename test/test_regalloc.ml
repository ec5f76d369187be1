(* Tests for the register allocator: interference graph, Chaitin-Briggs
   and linear-scan colouring, spill-code insertion, the Algorithm-1
   shared-memory optimization, and the end-to-end allocator — including
   the central property that allocation preserves kernel semantics. *)

module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let analyse k =
  let flow = Cfg.Flow.of_kernel k in
  let live = Cfg.Liveness.compute flow in
  (flow, live, Regalloc.Interference.build flow live)

(* ---------- interference ---------- *)

let chain_kernel () =
  (* three values all live simultaneously *)
  let b = B.create "chain" in
  let out = B.param b "out" T.U64 in
  let x = B.mov b T.U32 (B.imm 1) in
  let y = B.mov b T.U32 (B.imm 2) in
  let z = B.mov b T.U32 (B.imm 3) in
  let s1 = B.add b T.U32 (B.reg x) (B.reg y) in
  let s2 = B.add b T.U32 (B.reg s1) (B.reg z) in
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.U32 (B.reg base) 0 (B.reg s2);
  (B.finish b, x, y, z)

let test_interference_triangle () =
  let k, x, y, z = chain_kernel () in
  let _, _, g = analyse k in
  check "x-y interfere" true (Regalloc.Interference.interferes g x y);
  check "y-z interfere" true (Regalloc.Interference.interferes g y z);
  check "x-z interfere" true (Regalloc.Interference.interferes g x z);
  check "no self edges" false (Regalloc.Interference.interferes g x x)

(* mov d, s; with [live_source], s is read again after d is: the two
   hold one value, so the move alone must not make them interfere *)
let copy_kernel ~live_source =
  let b = B.create "copy" in
  let out = B.param b "out" T.U64 in
  let s = B.mov b T.U32 (B.imm 7) in
  let d = B.mov b T.U32 (B.reg s) in
  let v = if live_source then B.add b T.U32 (B.reg d) (B.reg s) else d in
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.U32 (B.reg base) 0 (B.reg v);
  (B.finish b, s, d)

let test_copy_exception () =
  List.iter
    (fun live_source ->
       let k, s, d = copy_kernel ~live_source in
       let _, _, g = analyse k in
       check
         (Printf.sprintf "copy source exempt (source live after: %b)" live_source)
         false
         (Regalloc.Interference.interferes g s d))
    [ false; true ]

let test_cross_class_no_edges () =
  let b = B.create "classes" in
  let out = B.param b "out" T.U64 in
  let x = B.mov b T.U32 (B.imm 1) in
  let w = B.mov b T.U64 (B.imm 2) in
  let x' = B.add b T.U32 (B.reg x) (B.imm 1) in
  let w' = B.add b T.U64 (B.reg w) (B.imm 1) in
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.U32 (B.reg base) 0 (B.reg x');
  B.st b T.Global T.U64 (B.reg base) 8 (B.reg w');
  let k = B.finish b in
  let _, _, g = analyse k in
  check "32/64-bit never interfere" false (Regalloc.Interference.interferes g x w)

let prop_interference_symmetric =
  QCheck.Test.make ~count:30 ~name:"interference graph is symmetric"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let _, _, g = analyse k in
      List.for_all
        (fun a ->
           Ptx.Reg.Set.for_all
             (fun b' -> Regalloc.Interference.interferes g b' a)
             (Regalloc.Interference.neighbors g a))
        (Regalloc.Interference.nodes g))

(* The graph against its definition: at each instruction, each def
   interferes with each register of its class live out of it, except
   itself and a move's source. Checks [nodes] (the registers the
   instructions read or write), [interferes] on every pair of nodes,
   [neighbors], [degree] and [num_edges]; the first mismatch is the
   error. *)
let graph_matches_definition k =
  let flow, live, g = analyse k in
  let cls r = T.reg_class (Ptx.Reg.ty r) in
  let defined = Ptx.Reg.Tbl.create 256 in
  let adj r =
    Option.value ~default:Ptx.Reg.Set.empty (Ptx.Reg.Tbl.find_opt defined r)
  in
  let nodes = ref Ptx.Reg.Set.empty in
  Cfg.Flow.iter_instrs flow (fun i ins ->
    List.iter (fun r -> nodes := Ptx.Reg.Set.add r !nodes) (I.uses ins @ I.defs ins);
    let source =
      match ins with
      | I.Mov (_, _, I.Oreg s) -> Some s
      | _ -> None
    in
    List.iter
      (fun d ->
         Ptx.Reg.Set.iter
           (fun o ->
              if
                (not (Ptx.Reg.equal o d))
                && cls o = cls d
                && not (Option.fold ~none:false ~some:(Ptx.Reg.equal o) source)
              then begin
                Ptx.Reg.Tbl.replace defined d (Ptx.Reg.Set.add o (adj d));
                Ptx.Reg.Tbl.replace defined o (Ptx.Reg.Set.add d (adj o))
              end)
           live.Cfg.Liveness.live_out.(i))
      (I.defs ins));
  let nodes = Ptx.Reg.Set.elements !nodes in
  let name = Ptx.Reg.name in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let edges = List.fold_left (fun acc r -> acc + Ptx.Reg.Set.cardinal (adj r)) 0 nodes / 2 in
  if nodes <> Regalloc.Interference.nodes g then fail "node sets differ"
  else if Regalloc.Interference.num_edges g <> edges then
    fail "num_edges %d, defined %d" (Regalloc.Interference.num_edges g) edges
  else
    List.fold_left
      (fun acc a ->
         Result.bind acc (fun () ->
           let want = adj a in
           if not (Ptx.Reg.Set.equal (Regalloc.Interference.neighbors g a) want) then
             fail "neighbours of %s differ" (name a)
           else if Regalloc.Interference.degree g a <> Ptx.Reg.Set.cardinal want then
             fail "degree of %s" (name a)
           else
             match
               List.find_opt
                 (fun b ->
                    Regalloc.Interference.interferes g a b <> Ptx.Reg.Set.mem b want)
                 nodes
             with
             | Some b -> fail "interferes %s %s" (name a) (name b)
             | None -> Ok ()))
      (Ok ()) nodes

let check_definition label k =
  match graph_matches_definition k with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

(* The hand-built kernels above, every workload kernel, and kernels
   carrying spill code: for the r20
   allocation at [`Spare 512] (local spills only) and [`Spare 8192]
   (shared sub-stacks), the kernels spilling the first one, the first
   half and all of its spilled registers where it placed them; the
   last is the final colouring round's kernel. *)
let test_interference_definition () =
  let k, _, _, _ = chain_kernel () in
  check_definition "chain" k;
  List.iter
    (fun live_source ->
       let k, _, _ = copy_kernel ~live_source in
       check_definition (Printf.sprintf "copy (source live after: %b)" live_source) k)
    [ false; true ];
  List.iter
    (fun (app : Workloads.App.t) ->
       let k = Workloads.App.kernel app in
       let abbr = app.Workloads.App.abbr in
       check_definition abbr k;
       List.iter
         (fun spare ->
            let block_size = app.Workloads.App.block_size in
            let a =
              Regalloc.Allocator.allocate ~shared_policy:(`Spare spare) ~block_size
                ~reg_limit:20 k
            in
            let placed = a.Regalloc.Allocator.spilled in
            let shared r =
              List.exists
                (fun (p : Regalloc.Spill.placement) ->
                   Ptx.Reg.equal p.reg r && p.space = T.Shared)
                placed
            in
            let n = List.length placed in
            List.iter
              (fun j ->
                 let spills =
                   List.filteri (fun i _ -> i < j) placed
                   |> List.map (fun (p : Regalloc.Spill.placement) -> p.reg)
                 in
                 let k', _ =
                   Regalloc.Spill.apply ~block_size k
                     (Regalloc.Spill.layout ~to_shared:shared spills)
                 in
                 if j = n then
                   check (abbr ^ " final round kernel") true
                     (Ptx.Printer.kernel_to_string k'
                      = Ptx.Printer.kernel_to_string a.Regalloc.Allocator.virtual_kernel);
                 check_definition (Printf.sprintf "%s/spare%d/%d of %d spills" abbr spare j n) k')
              (List.sort_uniq compare [ min n 1; (n + 1) / 2; n ]))
         [ 512; 8192 ])
    Workloads.Suite.all

let prop_interference_definition =
  QCheck.Test.make ~count:30 ~name:"interference graph matches its definition"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      match graph_matches_definition k with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* ---------- colouring ---------- *)

let color_ok graph cls result =
  List.for_all
    (fun a ->
       match Ptx.Reg.Map.find_opt a result.Regalloc.Coloring.assignment with
       | None -> true
       | Some ca ->
         Ptx.Reg.Set.for_all
           (fun n ->
              match Ptx.Reg.Map.find_opt n result.Regalloc.Coloring.assignment with
              | Some cn -> cn <> ca
              | None -> true)
           (Regalloc.Interference.neighbors graph a))
    (Regalloc.Interference.nodes_of_class graph cls)

let test_coloring_triangle_needs_three () =
  let k, _, _, _ = chain_kernel () in
  let _, _, g = analyse k in
  let cost _ = 1.0 in
  let r = Regalloc.Coloring.color ~graph:g ~cls:T.C32 ~k:16 ~spill_cost:cost () in
  check "valid colouring" true (color_ok g T.C32 r);
  check "no spills with 16 colours" true (r.Regalloc.Coloring.spilled = []);
  check "at least 3 colours for the triangle" true
    (r.Regalloc.Coloring.colors_used >= 3)

let test_coloring_spills_under_pressure () =
  let k, _, _, _ = chain_kernel () in
  let _, _, g = analyse k in
  let cost _ = 1.0 in
  let r = Regalloc.Coloring.color ~graph:g ~cls:T.C32 ~k:2 ~spill_cost:cost () in
  check "spills when 2 colours" true (r.Regalloc.Coloring.spilled <> []);
  check "still valid for coloured nodes" true (color_ok g T.C32 r)

let test_type_strict_prefers_same_type () =
  (* non-interfering f32 and u32 registers: strict colouring uses more
     colours (register waste) than loose colouring *)
  let b = B.create "waste" in
  let out = B.param b "out" T.U64 in
  let x = B.mov b T.U32 (B.imm 1) in
  let x' = B.add b T.U32 (B.reg x) (B.imm 1) in
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.U32 (B.reg base) 0 (B.reg x');
  let f = B.mov b T.F32 (B.fimm 1.0) in
  let f' = B.add b T.F32 (B.reg f) (B.fimm 1.0) in
  B.st b T.Global T.F32 (B.reg base) 4 (B.reg f');
  let k = B.finish b in
  let _, _, g = analyse k in
  let cost _ = 1.0 in
  let strict =
    Regalloc.Coloring.color ~type_strict:true ~graph:g ~cls:T.C32 ~k:16
      ~spill_cost:cost ()
  in
  let loose =
    Regalloc.Coloring.color ~type_strict:false ~graph:g ~cls:T.C32 ~k:16
      ~spill_cost:cost ()
  in
  check "strict >= loose colours" true
    (strict.Regalloc.Coloring.colors_used >= loose.Regalloc.Coloring.colors_used)

let test_linear_scan_valid () =
  let k = Workloads.App.kernel (Workloads.Suite.find "PATH") in
  let flow, live, g = analyse k in
  let cost _ = 1.0 in
  let r =
    Regalloc.Linear_scan.color ~ranges:(Cfg.Liveness.live_ranges flow live) ~cls:T.C32
      ~k:12 ~spill_cost:cost ()
  in
  check "linear scan colouring valid" true (color_ok g T.C32 r)

(* ---------- allocation audit (lib/verify) ----------

   The independent auditor re-derives live ranges on the pre-assignment
   kernel and checks every allocator invariant (simultaneously-live
   virtuals never share a physical register, the budget holds, spill
   slots are written before read and never overlap) — replacing the
   ad-hoc per-result interference spot checks used previously. *)

let audit_clean ?strategy ?shared_policy ~block_size ~reg_limit k label =
  let a =
    Regalloc.Allocator.allocate ?strategy ?shared_policy ~block_size
      ~reg_limit k
  in
  match Verify.Diagnostic.errors (Verify.Audit.check a) with
  | [] -> ()
  | errs -> Alcotest.failf "%s:\n%s" label (Verify.Diagnostic.render errs)

let strategies =
  [ (Regalloc.Allocator.Chaitin_briggs, "cb")
  ; (Regalloc.Allocator.Linear_scan, "ls")
  ]

let test_audit_suite_default_budgets () =
  List.iter
    (fun (app : Workloads.App.t) ->
       List.iter
         (fun (strategy, sname) ->
            audit_clean ~strategy ~block_size:app.Workloads.App.block_size
              ~reg_limit:app.Workloads.App.default_regs
              (Workloads.App.kernel app)
              (Printf.sprintf "%s@%d/%s" app.Workloads.App.abbr
                 app.Workloads.App.default_regs sname))
         strategies)
    Workloads.Suite.all

let test_audit_budget_sweep () =
  let k = Workloads.App.kernel (Workloads.Suite.find "CFD") in
  List.iter
    (fun (strategy, sname) ->
       List.iter
         (fun lim ->
            audit_clean ~strategy ~block_size:128 ~reg_limit:lim k
              (Printf.sprintf "CFD@%d/%s" lim sname))
         [ 24; 32; 40; 48; 56; 63 ])
    strategies

let test_audit_shared_spilling () =
  let k = Workloads.App.kernel (Workloads.Suite.find "STE") in
  audit_clean ~shared_policy:(`Spare 12288) ~block_size:128 ~reg_limit:40 k
    "STE@40 with Algorithm-1 shared spilling"

(* ---------- spill layout & insertion ---------- *)

let test_layout_alignment () =
  let regs =
    [ Ptx.Reg.make 0 T.F32; Ptx.Reg.make 1 T.U64; Ptx.Reg.make 2 T.U32
    ; Ptx.Reg.make 3 T.F64 ]
  in
  let spec = Regalloc.Spill.layout ~to_shared:(fun _ -> false) regs in
  List.iter
    (fun (p : Regalloc.Spill.placement) ->
       let w = T.width_bytes (Ptx.Reg.ty p.Regalloc.Spill.reg) in
       check "aligned" true (p.Regalloc.Spill.offset mod w = 0))
    spec.Regalloc.Spill.placements;
  let ranges =
    List.map
      (fun (p : Regalloc.Spill.placement) ->
         ( p.Regalloc.Spill.offset
         , p.Regalloc.Spill.offset + T.width_bytes (Ptx.Reg.ty p.Regalloc.Spill.reg) ))
      spec.Regalloc.Spill.placements
  in
  List.iteri
    (fun i (lo1, hi1) ->
       List.iteri
         (fun j (lo2, hi2) ->
            if i <> j then check "no overlap" true (hi1 <= lo2 || hi2 <= lo1))
         ranges)
    ranges;
  check "local bytes cover layout" true
    (List.for_all (fun (_, hi) -> hi <= spec.Regalloc.Spill.local_bytes) ranges)

let test_spill_apply_counts () =
  let k, x, _, _ = chain_kernel () in
  let spec = Regalloc.Spill.layout ~to_shared:(fun _ -> false) [ x ] in
  let k', stats = Regalloc.Spill.apply ~block_size:32 k spec in
  check "valid after spilling" true (Result.is_ok (Ptx.Kernel.validate k'));
  check_int "local accesses" 2 stats.Regalloc.Spill.num_local;
  check_int "address setup" 1 stats.Regalloc.Spill.num_other;
  check "spill stack declared" true (Ptx.Kernel.local_bytes k' > 0);
  check_int "instruction growth" (Ptx.Kernel.instr_count k + 3)
    (Ptx.Kernel.instr_count k')

let test_spill_def_and_use_same_instr () =
  let b = B.create "accspill" in
  let out = B.param b "out" T.U64 in
  let acc = B.mov b T.U32 (B.imm 0) in
  B.acc_binop b I.Add T.U32 acc (B.imm 1);
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.U32 (B.reg base) 0 (B.reg acc);
  let k = B.finish b in
  let spec = Regalloc.Spill.layout ~to_shared:(fun _ -> false) [ acc ] in
  let k', stats = Regalloc.Spill.apply ~block_size:32 k spec in
  check "valid" true (Result.is_ok (Ptx.Kernel.validate k'));
  (* mov def -> store; acc+=1 -> load+store; final use -> load *)
  check_int "accesses for def+use" 4 stats.Regalloc.Spill.num_local

let test_shared_spill_addressing () =
  let k, x, y, _ = chain_kernel () in
  let spec = Regalloc.Spill.layout ~to_shared:(fun r -> Ptx.Reg.equal r x) [ x; y ] in
  let k', stats = Regalloc.Spill.apply ~block_size:64 k spec in
  check "valid" true (Result.is_ok (Ptx.Kernel.validate k'));
  check "has shared stack" true (Ptx.Kernel.shared_bytes k' > 0);
  check "has local stack" true (Ptx.Kernel.local_bytes k' > 0);
  check_int "shared accesses counted" 2 stats.Regalloc.Spill.num_shared;
  check_int "shared sized for the block"
    (spec.Regalloc.Spill.shared_bytes_per_thread * 64)
    (Ptx.Kernel.shared_bytes k')

let test_infra_registers () =
  let k, x, _, _ = chain_kernel () in
  let spec = Regalloc.Spill.layout ~to_shared:(fun _ -> false) [ x ] in
  let k', _ = Regalloc.Spill.apply ~block_size:32 k spec in
  let infra = Regalloc.Spill.infra_registers k k' in
  check "infra nonempty" true (not (Ptx.Reg.Set.is_empty infra));
  check "original registers not infra" false (Ptx.Reg.Set.mem x infra)

(* ---------- knapsack / Algorithm 1 ---------- *)

let brute_force_knapsack values weights capacity =
  let n = Array.length values in
  let best = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let v = ref 0. and w = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        v := !v +. values.(i);
        w := !w + weights.(i)
      end
    done;
    if !w <= capacity && !v > !best then best := !v
  done;
  !best

let prop_knapsack_optimal =
  QCheck.Test.make ~count:100 ~name:"knapsack matches brute force"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (int_range 0 50))
        (list_of_size Gen.(int_range 1 8) (int_range 0 16)))
    (fun (vs, ws) ->
       let n = min (List.length vs) (List.length ws) in
       QCheck.assume (n > 0);
       let values = Array.of_list (List.filteri (fun i _ -> i < n) vs) in
       let weights =
         Array.of_list (List.filteri (fun i _ -> i < n) ws)
         |> Array.map (fun w -> w * 4)
       in
       let values_f = Array.map float_of_int values in
       let capacity = 96 in
       let mask =
         Regalloc.Shared_spill.knapsack ~values:values_f ~weights ~capacity
       in
       let got = ref 0. and w = ref 0 in
       Array.iteri
         (fun i b ->
            if b then begin
              got := !got +. values_f.(i);
              w := !w + weights.(i)
            end)
         mask;
       !w <= capacity
       && Float.abs (!got -. brute_force_knapsack values_f weights capacity) < 1e-9)

let test_split_by_type_and_chunk () =
  let regs =
    List.init 10 (fun i -> Ptx.Reg.make i (if i < 6 then T.F32 else T.U32))
  in
  let subs =
    Regalloc.Shared_spill.split ~chunk:4
      ~gain:(fun r -> float_of_int (Ptx.Reg.id r))
      regs
  in
  check_int "sub-stack count" 3 (List.length subs);
  List.iter
    (fun s ->
       check "single type per sub-stack" true
         (List.for_all
            (fun r -> T.equal_scalar (Ptx.Reg.ty r) s.Regalloc.Shared_spill.sty)
            s.Regalloc.Shared_spill.sregs))
    subs

let test_optimize_respects_budget () =
  let regs = List.init 12 (fun i -> Ptx.Reg.make i T.F32) in
  let to_shared =
    Regalloc.Shared_spill.optimize ~gain:(fun _ -> 2.) ~block_size:128
      ~spare_shm_bytes:2048 regs
  in
  let chosen = List.filter to_shared regs in
  (* each chunk of 4 f32 = 16B/thread x 128 threads = 2048B; one fits *)
  check_int "budget respected" 4 (List.length chosen)

let test_optimize_prefers_high_gain () =
  let regs = List.init 8 (fun i -> Ptx.Reg.make i T.F32) in
  (* ids 0..3 high gain, 4..7 low *)
  let gain r = if Ptx.Reg.id r < 4 then 100. else 1. in
  let to_shared =
    Regalloc.Shared_spill.optimize ~chunk:4 ~gain ~block_size:128
      ~spare_shm_bytes:2048 regs
  in
  check "high-gain chunk chosen" true
    (List.for_all (fun r -> to_shared r = (Ptx.Reg.id r < 4)) regs)

(* ---------- allocator end-to-end ---------- *)

let test_allocator_respects_limit () =
  let k = Workloads.App.kernel (Workloads.Suite.find "CFD") in
  List.iter
    (fun lim ->
       let a = Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:lim k in
       check "units within limit" true (a.Regalloc.Allocator.units_used <= lim))
    [ 24; 32; 40; 48; 56; 63 ]

let test_allocator_no_spill_with_headroom () =
  let app = Workloads.Suite.find "STM" in
  let k = Workloads.App.kernel app in
  let flow = Cfg.Flow.of_kernel k in
  let live = Cfg.Liveness.compute flow in
  let p = Cfg.Liveness.max_pressure live in
  let a = Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:(p + 8) k in
  check "no spills with head-room" true (a.Regalloc.Allocator.spilled = [])

let test_allocator_spill_count_monotone () =
  let k = Workloads.App.kernel (Workloads.Suite.find "CFD") in
  let spills lim =
    List.length
      (Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:lim k)
        .Regalloc.Allocator.spilled
  in
  check "fewer registers, not fewer spills" true (spills 24 >= spills 40);
  check "fewer registers, not fewer spills (2)" true (spills 40 >= spills 56)

let test_allocator_shared_policy () =
  let k = Workloads.App.kernel (Workloads.Suite.find "STE") in
  let local = Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:40 k in
  let shared =
    Regalloc.Allocator.allocate ~shared_policy:(`Spare 12288) ~block_size:128
      ~reg_limit:40 k
  in
  check "local-only has no shared spills" true
    (local.Regalloc.Allocator.stats.Regalloc.Spill.num_shared = 0);
  check "shared policy moves accesses" true
    (shared.Regalloc.Allocator.stats.Regalloc.Spill.num_shared > 0);
  check "shared policy reduces local accesses" true
    (shared.Regalloc.Allocator.stats.Regalloc.Spill.num_local
     < local.Regalloc.Allocator.stats.Regalloc.Spill.num_local)

let test_spill_bytes_decreasing () =
  let k = Workloads.App.kernel (Workloads.Suite.find "CFD") in
  let bytes lim =
    Regalloc.Allocator.spill_bytes
      (Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:lim k)
  in
  check "spill bytes shrink with more registers" true (bytes 24 > bytes 56)

let test_allocator_rejects_tiny_limit () =
  let k = Workloads.App.kernel (Workloads.Suite.find "CFD") in
  try
    let _ = Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:4 k in
    Alcotest.fail "limit 4 must be infeasible"
  with Failure _ -> ()

(* ---------- rematerialisation ---------- *)

let test_remat_avoids_stack () =
  let k, x, _, _ = chain_kernel () in
  (* x is a single-def constant mov: rematerialisable *)
  let spec =
    Regalloc.Spill.layout
      ~remat:(fun r -> if Ptx.Reg.equal r x then Some (I.Oimm 1L) else None)
      ~to_shared:(fun _ -> false)
      [ x ]
  in
  check "no stack slot" true (spec.Regalloc.Spill.placements = []);
  check_int "listed as remat" 1 (List.length spec.Regalloc.Spill.remat);
  let k', stats = Regalloc.Spill.apply ~block_size:32 k spec in
  check "valid" true (Result.is_ok (Ptx.Kernel.validate k'));
  check_int "no local traffic" 0 stats.Regalloc.Spill.num_local;
  check "remat moves inserted" true (stats.Regalloc.Spill.num_remat >= 1);
  check_int "no local stack declared" 0 (Ptx.Kernel.local_bytes k')

let prop_remat_preserves_semantics =
  QCheck.Test.make ~count:30 ~name:"rematerialisation preserves semantics"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let a =
        Regalloc.Allocator.allocate ~remat:true ~block_size:64 ~reg_limit:14 k
      in
      Testsupport.Gen.outputs_equal
        (Testsupport.Gen.run_emulated k)
        (Testsupport.Gen.run_emulated a.Regalloc.Allocator.kernel))

(* [with_copies k] follows every non-predicate definition of [r] —
   other than a rematerialisable constant or built-in move — with the
   round trip [mov c, r; mov r, c] through a fresh register [c]. The
   copy-related pairs are the ones a coalescer would merge; the allocator
   colours them as ordinary registers, and must keep the semantics. *)
let with_copies k =
  let next = ref (Ptx.Kernel.fresh_reg_base k) in
  let copy ins =
    match ins with
    | I.Mov (_, _, (I.Oimm _ | I.Ofimm _ | I.Ospecial _)) -> []
    | _ ->
      List.concat_map
        (fun r ->
           let ty = Ptx.Reg.ty r in
           if ty = T.Pred then []
           else begin
             let c = Ptx.Reg.make !next ty in
             incr next;
             [ Ptx.Kernel.I (I.Mov (ty, c, I.Oreg r))
             ; Ptx.Kernel.I (I.Mov (ty, r, I.Oreg c))
             ]
           end)
        (I.defs ins)
  in
  let body =
    Array.to_list k.Ptx.Kernel.body
    |> List.concat_map (function
      | Ptx.Kernel.I ins as s -> s :: copy ins
      | s -> [ s ])
  in
  { k with Ptx.Kernel.body = Array.of_list body }

let copies_preserved ?remat k =
  let k = with_copies k in
  Result.is_ok (Ptx.Kernel.validate k)
  &&
  let a =
    Regalloc.Allocator.allocate ?remat ~block_size:64 ~reg_limit:14 k
  in
  Testsupport.Gen.outputs_equal
    (Testsupport.Gen.run_emulated k)
    (Testsupport.Gen.run_emulated a.Regalloc.Allocator.kernel)

let prop_coalesce_preserves_semantics =
  QCheck.Test.make ~count:30 ~name:"coalescing preserves semantics"
    Testsupport.Gen.arbitrary_kernel (fun k -> copies_preserved k)

let prop_coalesce_remat_together =
  QCheck.Test.make ~count:30 ~name:"coalesce+remat preserve semantics"
    Testsupport.Gen.arbitrary_kernel (fun k -> copies_preserved ~remat:true k)

let test_remat_reduces_local_insts () =
  let k = Workloads.App.kernel (Workloads.Suite.find "CFD") in
  let base = Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:40 k in
  let rm = Regalloc.Allocator.allocate ~remat:true ~block_size:128 ~reg_limit:40 k in
  check "remat never increases local accesses" true
    (rm.Regalloc.Allocator.stats.Regalloc.Spill.num_local
     <= base.Regalloc.Allocator.stats.Regalloc.Spill.num_local)

(* the central property: allocation (with spilling) preserves semantics *)
let semantics_preserved ?shared_policy ?strategy ~reg_limit k =
  let a =
    Regalloc.Allocator.allocate ?shared_policy ?strategy ~block_size:64
      ~reg_limit k
  in
  let before = Testsupport.Gen.run_emulated k in
  let after = Testsupport.Gen.run_emulated a.Regalloc.Allocator.kernel in
  Testsupport.Gen.outputs_equal before after

let prop_allocation_preserves_semantics =
  QCheck.Test.make ~count:40 ~name:"allocation preserves semantics (tight limit)"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      semantics_preserved ~reg_limit:14 k)

let prop_allocation_preserves_semantics_shared =
  QCheck.Test.make ~count:25
    ~name:"allocation preserves semantics (shared spilling)"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      semantics_preserved ~shared_policy:(`Spare 8192) ~reg_limit:14 k)

let prop_linear_scan_preserves_semantics =
  QCheck.Test.make ~count:25 ~name:"linear scan preserves semantics"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      semantics_preserved ~strategy:Regalloc.Allocator.Linear_scan ~reg_limit:16 k)

let prop_allocated_demand_bounded =
  QCheck.Test.make ~count:30 ~name:"allocated kernel respects the limit"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let lim = 14 in
      let a = Regalloc.Allocator.allocate ~block_size:64 ~reg_limit:lim k in
      a.Regalloc.Allocator.units_used <= lim)

(* the spill-free probe is round 1 of [allocate]: at every limit it
   answers [(allocate ...).spilled = []] and raises [Failure] where
   round 1 does, with and without a scalar partition. The one allowed
   difference: round 1 spills (the probe says [false]) and a later
   spill round of [allocate] finds the limit infeasible. Where the
   probe says spill-free, [finish] is [allocate]'s allocation, field for
   field; elsewhere it is [None]. *)
let same_allocation (f : Regalloc.Allocator.t) (a : Regalloc.Allocator.t) =
  Ptx.Printer.kernel_to_string f.kernel = Ptx.Printer.kernel_to_string a.kernel
  && Ptx.Reg.Map.equal Ptx.Reg.equal f.assignment a.assignment
  && f.units_used = a.units_used
  && f.pred_used = a.pred_used
  && f.scalar_units_used = a.scalar_units_used
  && f.scalarized = a.scalarized
  && f.stats = a.stats
  && f.spilled = [] && a.spilled = []
  && f.rounds = 1 && a.rounds = 1

let probe_matches_allocate ~scalar ~scalar_limit k =
  let flow = Cfg.Flow.of_kernel k in
  let p =
    Regalloc.Allocator.probe ~scalar ~scalar_limit flow (Cfg.Liveness.compute flow)
  in
  List.for_all
    (fun reg_limit ->
       let probed =
         match Regalloc.Allocator.spill_free p ~reg_limit with
         | free -> Some free
         | exception Failure _ -> None
       in
       let allocation =
         match
           Regalloc.Allocator.allocate ~scalar ~scalar_limit ~block_size:64 ~reg_limit k
         with
         | a -> Some a
         | exception Failure _ -> None
       in
       let allocated =
         Option.map (fun (a : Regalloc.Allocator.t) -> a.spilled = []) allocation
       in
       let finished =
         match Regalloc.Allocator.finish p ~block_size:64 ~reg_limit with
         | f -> Some f
         | exception Failure _ -> None
       in
       (probed = allocated || (probed = Some false && allocated = None))
       &&
       match (probed, finished, allocation) with
       | Some true, Some (Some f), Some a -> same_allocation f a
       | Some false, Some None, _ | None, None, _ -> true
       | _ -> false)
    (List.init 63 (fun i -> i + 1))

let prop_probe_matches_allocate =
  QCheck.Test.make ~count:20 ~name:"spill-free probe matches allocate"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      probe_matches_allocate ~scalar:(fun _ -> false) ~scalar_limit:0 k
      && probe_matches_allocate
           ~scalar:(Machine.Scalarize.predicate ~block_size:64 k)
           ~scalar_limit:Machine.Backend.default_scalar_limit k)

(* The allocation pin: the digest of the allocation surface is the
   engine's allocation epoch, which every allocation key folds in. *)
let test_alloc_epoch_pinned () =
  let entries = Testsupport.Surface.allocations () in
  check_int "allocation surface size" 528 (List.length entries);
  let d = Testsupport.Surface.digest entries in
  if d <> Crat.Engine.alloc_epoch then
    Alcotest.failf
      "the allocation surface moved: its digest is %s, but \
       Crat.Engine.alloc_epoch is %s. Diff bench/statdump.exe --allocations \
       against the parent build's to see which allocations moved; if the \
       allocator change is intended, set alloc_epoch in lib/core/engine.ml \
       to %s, which orphans every stored allocation of the old allocator."
      d Crat.Engine.alloc_epoch d

let () =
  Alcotest.run "regalloc"
    [ ( "interference"
      , [ Alcotest.test_case "triangle" `Quick test_interference_triangle
        ; Alcotest.test_case "copy exception" `Quick test_copy_exception
        ; Alcotest.test_case "cross-class" `Quick test_cross_class_no_edges
        ; Alcotest.test_case "matches its definition" `Slow test_interference_definition
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_interference_symmetric; prop_interference_definition ] )
    ; ( "coloring"
      , [ Alcotest.test_case "triangle needs 3" `Quick test_coloring_triangle_needs_three
        ; Alcotest.test_case "spills under pressure" `Quick test_coloring_spills_under_pressure
        ; Alcotest.test_case "type-strict waste" `Quick test_type_strict_prefers_same_type
        ; Alcotest.test_case "linear scan valid" `Quick test_linear_scan_valid
        ] )
    ; ( "audit"
      , [ Alcotest.test_case "suite at default budgets" `Slow
            test_audit_suite_default_budgets
        ; Alcotest.test_case "CFD budget sweep" `Quick test_audit_budget_sweep
        ; Alcotest.test_case "shared spilling" `Quick test_audit_shared_spilling
        ] )
    ; ( "spill"
      , [ Alcotest.test_case "layout alignment" `Quick test_layout_alignment
        ; Alcotest.test_case "apply counts" `Quick test_spill_apply_counts
        ; Alcotest.test_case "def+use same instruction" `Quick test_spill_def_and_use_same_instr
        ; Alcotest.test_case "shared addressing" `Quick test_shared_spill_addressing
        ; Alcotest.test_case "infra registers" `Quick test_infra_registers
        ] )
    ; ( "algorithm1"
      , [ Alcotest.test_case "split by type and chunk" `Quick test_split_by_type_and_chunk
        ; Alcotest.test_case "budget respected" `Quick test_optimize_respects_budget
        ; Alcotest.test_case "prefers high gain" `Quick test_optimize_prefers_high_gain
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_knapsack_optimal ] )
    ; ( "allocator"
      , [ Alcotest.test_case "respects limit" `Quick test_allocator_respects_limit
        ; Alcotest.test_case "no spill with head-room" `Quick test_allocator_no_spill_with_headroom
        ; Alcotest.test_case "spill monotonicity" `Quick test_allocator_spill_count_monotone
        ; Alcotest.test_case "shared policy effective" `Quick test_allocator_shared_policy
        ; Alcotest.test_case "spill bytes decrease" `Quick test_spill_bytes_decreasing
        ; Alcotest.test_case "rejects tiny limit" `Quick test_allocator_rejects_tiny_limit
        ; Alcotest.test_case "alloc epoch pins the surface" `Slow
            test_alloc_epoch_pinned
        ] )
    ; ( "extensions"
      , [ Alcotest.test_case "remat avoids the stack" `Quick test_remat_avoids_stack
        ; Alcotest.test_case "remat reduces local accesses" `Quick
            test_remat_reduces_local_insts
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_coalesce_preserves_semantics
            ; prop_remat_preserves_semantics
            ; prop_coalesce_remat_together
            ] )
    ; ( "semantics"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_allocation_preserves_semantics
          ; prop_allocation_preserves_semantics_shared
          ; prop_linear_scan_preserves_semantics
          ; prop_allocated_demand_bounded
          ] )
    ; ("probe", List.map QCheck_alcotest.to_alcotest [ prop_probe_matches_allocate ])
    ]
