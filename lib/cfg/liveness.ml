module Set = Ptx.Reg.Set

type t =
  { live_in : Set.t array
  ; live_out : Set.t array
  }

(* Block-level use/def: [use] is registers read before any write in the
   block; [def] is registers written. *)
let block_use_def (flow : Flow.t) (b : Flow.block) =
  let use = ref Set.empty and def = ref Set.empty in
  for i = b.first to b.last do
    let ins = flow.instrs.(i) in
    List.iter
      (fun r -> if not (Set.mem r !def) then use := Set.add r !use)
      (Ptx.Instr.uses ins);
    List.iter (fun r -> def := Set.add r !def) (Ptx.Instr.defs ins)
  done;
  (!use, !def)

let compute (flow : Flow.t) =
  let nb = Flow.num_blocks flow in
  let n = Flow.num_instrs flow in
  let use = Array.make nb Set.empty and def = Array.make nb Set.empty in
  Array.iteri
    (fun i b ->
       let u, d = block_use_def flow b in
       use.(i) <- u;
       def.(i) <- d)
    flow.blocks;
  let bin = Array.make nb Set.empty and bout = Array.make nb Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse order converges quickly for backward problems *)
    for bi = nb - 1 downto 0 do
      let b = flow.blocks.(bi) in
      let out =
        List.fold_left (fun acc s -> Set.union acc bin.(s)) Set.empty b.succs
      in
      let inn = Set.union use.(bi) (Set.diff out def.(bi)) in
      if not (Set.equal out bout.(bi) && Set.equal inn bin.(bi)) then begin
        bout.(bi) <- out;
        bin.(bi) <- inn;
        changed := true
      end
    done
  done;
  let live_in = Array.make (max n 1) Set.empty in
  let live_out = Array.make (max n 1) Set.empty in
  Array.iter
    (fun (b : Flow.block) ->
       let live = ref bout.(b.bid) in
       for i = b.last downto b.first do
         live_out.(i) <- !live;
         let ins = flow.instrs.(i) in
         let after_def =
           List.fold_left (fun acc r -> Set.remove r acc) !live
             (Ptx.Instr.defs ins)
         in
         live :=
           List.fold_left (fun acc r -> Set.add r acc) after_def
             (Ptx.Instr.uses ins);
         live_in.(i) <- !live
       done)
    flow.blocks;
  { live_in; live_out }

let pressure_at set =
  Set.fold
    (fun r acc ->
       acc + Ptx.Types.class_units (Ptx.Types.reg_class (Ptx.Reg.ty r)))
    set 0

let max_pressure t =
  let m = ref 0 in
  Array.iter (fun s -> m := max !m (pressure_at s)) t.live_in;
  Array.iter (fun s -> m := max !m (pressure_at s)) t.live_out;
  !m

let max_live t cls =
  let count set =
    Set.fold
      (fun r acc ->
         if Ptx.Types.reg_class (Ptx.Reg.ty r) = cls then acc + 1 else acc)
      set 0
  in
  let m = ref 0 in
  Array.iter (fun s -> m := max !m (count s)) t.live_in;
  Array.iter (fun s -> m := max !m (count s)) t.live_out;
  !m

let live_ranges (flow : Flow.t) t =
  let tbl = Ptx.Reg.Tbl.create 64 in
  let touch r i =
    match Ptx.Reg.Tbl.find_opt tbl r with
    | None -> Ptx.Reg.Tbl.replace tbl r (i, i)
    | Some (lo, hi) -> Ptx.Reg.Tbl.replace tbl r (min lo i, max hi i)
  in
  Flow.iter_instrs flow (fun i ins ->
    List.iter (fun r -> touch r i) (Ptx.Instr.defs ins);
    List.iter (fun r -> touch r i) (Ptx.Instr.uses ins));
  (* inside a block a register stays live only up to an instruction
     that touches it, unless it is live into the block, and only after
     one, unless it is live out of it; so the sets at the blocks' ends
     add all that the per-instruction sets would *)
  Array.iter
    (fun (b : Flow.block) ->
       Set.iter (fun r -> touch r b.first) t.live_in.(b.first);
       Set.iter (fun r -> touch r b.last) t.live_out.(b.last))
    flow.blocks;
  Ptx.Reg.Tbl.fold (fun r range acc -> (r, range) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Ptx.Reg.compare a b)
