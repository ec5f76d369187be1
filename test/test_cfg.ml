(* Tests for CFG construction, liveness, dominance/post-dominance, loop
   detection and def-use statistics. *)

module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a diamond: entry -> (then | else) -> join *)
let diamond_kernel () =
  let b = B.create "diamond" in
  let _ = B.param b "out" T.U64 in
  let tid = B.special b Ptx.Reg.Tid_x in
  let p = B.setp b I.Lt T.U32 (B.reg tid) (B.imm 16) in
  let else_l = B.fresh_label b "Lelse" in
  let join_l = B.fresh_label b "Ljoin" in
  let acc = B.mov b T.U32 (B.imm 0) in
  B.bra_ifnot b p else_l;
  B.acc_binop b I.Add T.U32 acc (B.imm 1);
  B.bra b join_l;
  B.label b else_l;
  B.acc_binop b I.Add T.U32 acc (B.imm 2);
  B.label b join_l;
  ignore (B.add b T.U32 (B.reg acc) (B.imm 3));
  B.finish b

let loop_kernel () =
  let b = B.create "loopy" in
  let _ = B.param b "out" T.U64 in
  let acc = B.mov b T.U32 (B.imm 0) in
  B.for_loop b ~from:(B.imm 0) ~below:(B.imm 8) ~step:1 (fun i ->
    B.acc_binop b I.Add T.U32 acc (B.reg i));
  B.finish b

let test_diamond_blocks () =
  let flow = Cfg.Flow.of_kernel (diamond_kernel ()) in
  check_int "four blocks" 4 (Cfg.Flow.num_blocks flow);
  let entry = Cfg.Flow.entry flow in
  check_int "entry has two successors" 2 (List.length entry.Cfg.Flow.succs);
  (* join block has two predecessors *)
  let join =
    Array.to_list flow.Cfg.Flow.blocks
    |> List.find (fun b -> List.length b.Cfg.Flow.preds = 2)
  in
  check "join exists" true (join.Cfg.Flow.bid > 0);
  check_int "single exit" 1 (List.length (Cfg.Flow.exit_blocks flow))

let test_loop_blocks () =
  let flow = Cfg.Flow.of_kernel (loop_kernel ()) in
  (* entry, head, body, exit *)
  check_int "four blocks" 4 (Cfg.Flow.num_blocks flow);
  let edges = Cfg.Loops.back_edges flow in
  check_int "one back edge" 1 (List.length edges);
  let depths = Cfg.Loops.depths flow in
  check "body in loop" true (Array.exists (fun d -> d = 1) depths);
  check "entry not in loop" true (depths.(0) = 0)

let test_preds_consistent_with_succs () =
  let flow = Cfg.Flow.of_kernel (diamond_kernel ()) in
  Array.iter
    (fun (blk : Cfg.Flow.block) ->
       List.iter
         (fun s ->
            check "succ lists us as pred" true
              (List.mem blk.Cfg.Flow.bid flow.Cfg.Flow.blocks.(s).Cfg.Flow.preds))
         blk.Cfg.Flow.succs)
    flow.Cfg.Flow.blocks

(* ---------- liveness ---------- *)

let test_liveness_straightline () =
  (* r0 = tid; r1 = r0+1; r2 = r1+1; store r2 : r0 dies after first add *)
  let b = B.create "sl" in
  let out = B.param b "out" T.U64 in
  let t = B.special b Ptx.Reg.Tid_x in
  let a = B.add b T.U32 (B.reg t) (B.imm 1) in
  let c = B.add b T.U32 (B.reg a) (B.imm 1) in
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.U32 (B.reg base) 0 (B.reg c);
  let k = B.finish b in
  let flow = Cfg.Flow.of_kernel k in
  let live = Cfg.Liveness.compute flow in
  (* at the final store, only c and base are live-in *)
  let n = Cfg.Flow.num_instrs flow in
  let last_store = n - 2 in
  check "t dead at store" false
    (Ptx.Reg.Set.mem t live.Cfg.Liveness.live_in.(last_store));
  check "c live at store" true
    (Ptx.Reg.Set.mem c live.Cfg.Liveness.live_in.(last_store));
  check "nothing live out of the end" true
    (Ptx.Reg.Set.is_empty live.Cfg.Liveness.live_out.(n - 1))

let test_liveness_loop_carried () =
  let k = loop_kernel () in
  let flow = Cfg.Flow.of_kernel k in
  let live = Cfg.Liveness.compute flow in
  (* the accumulator must be live around the back edge: live-in of the
     loop-head block *)
  let found = ref false in
  Array.iteri
    (fun i ins ->
       match ins with
       | I.Setp _ ->
         if Ptx.Reg.Set.cardinal live.Cfg.Liveness.live_in.(i) >= 2 then found := true
       | _ -> ())
    flow.Cfg.Flow.instrs;
  check "accumulator and induction live at head" true !found

let test_max_pressure_monotone_subkernel () =
  let k = Workloads.App.kernel (Workloads.Suite.find "CFD") in
  let flow = Cfg.Flow.of_kernel k in
  let live = Cfg.Liveness.compute flow in
  let p = Cfg.Liveness.max_pressure live in
  check "CFD pressure in plausible band" true (p > 40 && p < 120)

let test_pressure_at_counts_units () =
  let set =
    Ptx.Reg.Set.of_list
      [ Ptx.Reg.make 0 T.U32; Ptx.Reg.make 1 T.U64; Ptx.Reg.make 2 T.Pred ]
  in
  check_int "1 + 2 + 0 units" 3 (Cfg.Liveness.pressure_at set)

(* ---------- dominance ---------- *)

let test_dominators_diamond () =
  let flow = Cfg.Flow.of_kernel (diamond_kernel ()) in
  let dom = Cfg.Dominance.dominators flow in
  (* entry dominates everything *)
  for i = 0 to Cfg.Flow.num_blocks flow - 1 do
    check "entry dominates" true (Cfg.Dominance.dominates dom 0 i)
  done;
  (* then-block does not dominate join *)
  let join =
    (Array.to_list flow.Cfg.Flow.blocks
     |> List.find (fun b -> List.length b.Cfg.Flow.preds = 2)).Cfg.Flow.bid
  in
  check "then does not dominate join" false (Cfg.Dominance.dominates dom 1 join);
  Alcotest.(check (option int)) "idom of join is entry" (Some 0)
    (Cfg.Dominance.idom dom join)

let test_post_dominators_diamond () =
  let flow = Cfg.Flow.of_kernel (diamond_kernel ()) in
  let pdom = Cfg.Dominance.post_dominators flow in
  let join =
    (Array.to_list flow.Cfg.Flow.blocks
     |> List.find (fun b -> List.length b.Cfg.Flow.preds = 2)).Cfg.Flow.bid
  in
  (* the join post-dominates the entry; the reconvergence point of the
     entry block's branch is the join's first instruction *)
  check "join post-dominates entry" true (Cfg.Dominance.dominates pdom join 0);
  (match Cfg.Dominance.reconvergence_point flow pdom 0 with
   | Some pc ->
     check_int "reconverge at join head" flow.Cfg.Flow.blocks.(join).Cfg.Flow.first pc
   | None -> Alcotest.fail "no reconvergence point")

let test_post_dominators_loop () =
  let flow = Cfg.Flow.of_kernel (loop_kernel ()) in
  let pdom = Cfg.Dominance.post_dominators flow in
  (* the loop head's conditional branch reconverges at the exit block *)
  let head_block =
    (* block ending in Bra_pred *)
    Array.to_list flow.Cfg.Flow.blocks
    |> List.find (fun (b : Cfg.Flow.block) ->
      match flow.Cfg.Flow.instrs.(b.Cfg.Flow.last) with
      | I.Bra_pred _ -> true
      | _ -> false)
  in
  match Cfg.Dominance.reconvergence_point flow pdom head_block.Cfg.Flow.bid with
  | Some pc -> check "reconv beyond loop" true (pc > head_block.Cfg.Flow.last)
  | None -> Alcotest.fail "loop branch must reconverge"

(* ---------- def-use ---------- *)

let test_defuse_loop_weighting () =
  let k = loop_kernel () in
  let flow = Cfg.Flow.of_kernel k in
  let stats = Cfg.Defuse.compute flow in
  (* the accumulator (inside the loop) must have higher weighted count
     than a register of equal static count outside *)
  let max_weight =
    Ptx.Reg.Map.fold (fun _ s acc -> Float.max acc s.Cfg.Defuse.weighted) stats 0.
  in
  check "loop weighting applied" true (max_weight >= 30.)

let test_nested_loop_depths () =
  (* the workload pass_loop is a double nest: inner blocks at depth 2 *)
  let k = Workloads.App.kernel (Workloads.Suite.find "KMN") in
  let flow = Cfg.Flow.of_kernel k in
  let depths = Cfg.Loops.depths flow in
  check "depth-2 blocks exist" true (Array.exists (fun d -> d >= 2) depths);
  check_int "two back edges" 2 (List.length (Cfg.Loops.back_edges flow))

let test_defuse_exact_counts () =
  let b = B.create "du" in
  let out = B.param b "out" T.U64 in
  let x = B.mov b T.U32 (B.imm 1) in
  let y = B.add b T.U32 (B.reg x) (B.reg x) in
  let base = B.ld_param b T.U64 out in
  B.st b T.Global T.U32 (B.reg base) 0 (B.reg y);
  let k = B.finish b in
  let flow = Cfg.Flow.of_kernel k in
  let du = Cfg.Defuse.compute flow in
  let sx = Ptx.Reg.Map.find x du in
  check_int "x defined once" 1 sx.Cfg.Defuse.n_defs;
  check_int "x used twice" 2 sx.Cfg.Defuse.n_uses;
  let sy = Ptx.Reg.Map.find y du in
  check_int "y used once" 1 sy.Cfg.Defuse.n_uses

let prop_liveness_use_implies_livein =
  QCheck.Test.make ~count:40 ~name:"instruction uses are live-in"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let flow = Cfg.Flow.of_kernel k in
      let live = Cfg.Liveness.compute flow in
      let ok = ref true in
      Cfg.Flow.iter_instrs flow (fun i ins ->
        List.iter
          (fun r ->
             if not (Ptx.Reg.Set.mem r live.Cfg.Liveness.live_in.(i)) then ok := false)
          (I.uses ins));
      !ok)

let prop_liveness_fixpoint =
  QCheck.Test.make ~count:30 ~name:"live-out is union of successor live-ins"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let flow = Cfg.Flow.of_kernel k in
      let live = Cfg.Liveness.compute flow in
      Array.for_all
        (fun (blk : Cfg.Flow.block) ->
           let out = live.Cfg.Liveness.live_out.(blk.Cfg.Flow.last) in
           let expect =
             List.fold_left
               (fun acc s ->
                  Ptx.Reg.Set.union acc
                    live.Cfg.Liveness.live_in.(flow.Cfg.Flow.blocks.(s).Cfg.Flow.first))
               Ptx.Reg.Set.empty blk.Cfg.Flow.succs
           in
           Ptx.Reg.Set.equal out expect)
        flow.Cfg.Flow.blocks)

(* [live_ranges] against its definition: a register's range spans every
   instruction that reads or writes it or has it live in or out. *)
let ranges_match_definition k =
  let flow = Cfg.Flow.of_kernel k in
  let live = Cfg.Liveness.compute flow in
  let span = ref Ptx.Reg.Map.empty in
  let touch r i =
    span :=
      Ptx.Reg.Map.update r
        (function
          | None -> Some (i, i)
          | Some (lo, hi) -> Some (min lo i, max hi i))
        !span
  in
  Cfg.Flow.iter_instrs flow (fun i ins ->
    List.iter (fun r -> touch r i) (I.defs ins @ I.uses ins);
    Ptx.Reg.Set.iter (fun r -> touch r i) live.Cfg.Liveness.live_in.(i);
    Ptx.Reg.Set.iter (fun r -> touch r i) live.Cfg.Liveness.live_out.(i));
  Cfg.Liveness.live_ranges flow live = Ptx.Reg.Map.bindings !span

let prop_live_ranges_definition =
  QCheck.Test.make ~count:40 ~name:"live ranges span every live point"
    Testsupport.Gen.arbitrary_kernel ranges_match_definition

let test_live_ranges_suite () =
  List.iter
    (fun (app : Workloads.App.t) ->
       check (app.Workloads.App.abbr ^ " live ranges") true
         (ranges_match_definition (Workloads.App.kernel app)))
    Workloads.Suite.all

let prop_entry_dominates_all =
  QCheck.Test.make ~count:30 ~name:"entry dominates every block"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let flow = Cfg.Flow.of_kernel k in
      let dom = Cfg.Dominance.dominators flow in
      let ok = ref true in
      for i = 0 to Cfg.Flow.num_blocks flow - 1 do
        if not (Cfg.Dominance.dominates dom 0 i) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "cfg"
    [ ( "flow"
      , [ Alcotest.test_case "diamond blocks" `Quick test_diamond_blocks
        ; Alcotest.test_case "loop blocks" `Quick test_loop_blocks
        ; Alcotest.test_case "preds consistent" `Quick test_preds_consistent_with_succs
        ] )
    ; ( "liveness"
      , [ Alcotest.test_case "straight line" `Quick test_liveness_straightline
        ; Alcotest.test_case "loop carried" `Quick test_liveness_loop_carried
        ; Alcotest.test_case "CFD pressure band" `Quick test_max_pressure_monotone_subkernel
        ; Alcotest.test_case "pressure units" `Quick test_pressure_at_counts_units
        ; Alcotest.test_case "live ranges (suite)" `Quick test_live_ranges_suite
        ] )
    ; ( "dominance"
      , [ Alcotest.test_case "dominators (diamond)" `Quick test_dominators_diamond
        ; Alcotest.test_case "post-dominators (diamond)" `Quick test_post_dominators_diamond
        ; Alcotest.test_case "post-dominators (loop)" `Quick test_post_dominators_loop
        ] )
    ; ( "defuse"
      , [ Alcotest.test_case "loop weighting" `Quick test_defuse_loop_weighting
        ; Alcotest.test_case "nested loop depths" `Quick test_nested_loop_depths
        ; Alcotest.test_case "exact counts" `Quick test_defuse_exact_counts
        ] )
    ; ( "properties"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_liveness_use_implies_livein
          ; prop_liveness_fixpoint
          ; prop_live_ranges_definition
          ; prop_entry_dominates_all
          ] )
    ]
