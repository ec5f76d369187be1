module RSet = Ptx.Reg.Set

(* Nodes are numbered class by class (predicates, then 32-bit, then
   64-bit), in [Ptx.Reg.compare] order within a class, so the nodes of
   a class are a range [lo.(c), hi.(c)). Only nodes of one class
   interfere: each class has its own triangle of the bit-matrix, the
   bit of nodes [i > j] sitting at [tri.(c) + (i-lo)(i-lo-1)/2 + (j-lo)]. *)
type t =
  { regs : Ptx.Reg.t array
  ; index : int Ptx.Reg.Tbl.t
  ; lo : int array
  ; hi : int array
  ; tri : int array
  ; bits : Bytes.t
  ; adj : int array array
  ; edges : int
  }

let class_rank = function
  | Ptx.Types.Cpred -> 0
  | Ptx.Types.C32 -> 1
  | Ptx.Types.C64 -> 2

let rank_of r = class_rank (Ptx.Types.reg_class (Ptx.Reg.ty r))

let bit ~lo ~tri c i j =
  let i, j = if i > j then (i, j) else (j, i) in
  let li = i - lo.(c) in
  tri.(c) + (li * (li - 1) / 2) + (j - lo.(c))

let test_bit bits b = Char.code (Bytes.unsafe_get bits (b lsr 3)) land (1 lsl (b land 7)) <> 0

let build (flow : Cfg.Flow.t) (live : Cfg.Liveness.t) =
  let all = ref RSet.empty in
  Cfg.Flow.iter_instrs flow (fun _ ins ->
    List.iter (fun r -> all := RSet.add r !all) (Ptx.Instr.uses ins);
    List.iter (fun r -> all := RSet.add r !all) (Ptx.Instr.defs ins));
  let all = RSet.elements !all in
  let regs =
    Array.of_list
      (List.concat_map (fun c -> List.filter (fun r -> rank_of r = c) all) [ 0; 1; 2 ])
  in
  let n = Array.length regs in
  let index = Ptx.Reg.Tbl.create (max n 1) in
  Array.iteri (fun i r -> Ptx.Reg.Tbl.replace index r i) regs;
  let cls = Array.map rank_of regs in
  let lo = Array.make 3 0 and hi = Array.make 3 0 and tri = Array.make 3 0 in
  for c = 0 to 2 do
    lo.(c) <- (if c = 0 then 0 else hi.(c - 1));
    hi.(c) <- lo.(c);
    while hi.(c) < n && cls.(hi.(c)) = c do
      hi.(c) <- hi.(c) + 1
    done;
    let m = hi.(c) - lo.(c) in
    if c < 2 then tri.(c + 1) <- tri.(c) + (m * (m - 1) / 2)
  done;
  let total =
    let m = hi.(2) - lo.(2) in
    tri.(2) + (m * (m - 1) / 2)
  in
  let bits = Bytes.make ((total / 8) + 1) '\000' in
  let adj = Array.make n [] in
  let edges = ref 0 in
  let add_edge a b =
    let p = bit ~lo ~tri cls.(a) a b in
    if not (test_bit bits p) then begin
      Bytes.unsafe_set bits (p lsr 3)
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits (p lsr 3)) lor (1 lsl (p land 7))));
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b);
      incr edges
    end
  in
  (* the live set during the backward walk: a sparse set, member [v]
     iff [pos.(v) < size && dense.(pos.(v)) = v] *)
  let dense = Array.make (max n 1) 0 and pos = Array.make (max n 1) 0 in
  let size = ref 0 in
  let mem v = pos.(v) < !size && dense.(pos.(v)) = v in
  let add v =
    if not (mem v) then begin
      pos.(v) <- !size;
      dense.(!size) <- v;
      incr size
    end
  in
  let remove v =
    if mem v then begin
      decr size;
      let last = dense.(!size) in
      dense.(pos.(v)) <- last;
      pos.(last) <- pos.(v)
    end
  in
  let node r = Ptx.Reg.Tbl.find index r in
  Array.iter
    (fun (b : Cfg.Flow.block) ->
       size := 0;
       RSet.iter (fun r -> add (node r)) live.Cfg.Liveness.live_out.(b.last);
       (* at the top of each step the set is instruction [i]'s live-out *)
       for i = b.last downto b.first do
         let ins = flow.Cfg.Flow.instrs.(i) in
         let defs = List.map node (Ptx.Instr.defs ins) in
         (* the copy exception: [mov d, s] does not make d interfere with s *)
         let exempt =
           match ins with
           | Ptx.Instr.Mov (_, _, Ptx.Instr.Oreg s) -> node s
           | Ptx.Instr.Mov _ | Ptx.Instr.Binop _ | Ptx.Instr.Mad _
           | Ptx.Instr.Unop _ | Ptx.Instr.Cvt _ | Ptx.Instr.Setp _
           | Ptx.Instr.Selp _ | Ptx.Instr.Ld _ | Ptx.Instr.St _ | Ptx.Instr.Bra _
           | Ptx.Instr.Bra_pred _ | Ptx.Instr.Bar_sync | Ptx.Instr.Ret -> -1
         in
         List.iter
           (fun d ->
              let c = cls.(d) in
              for k = 0 to !size - 1 do
                let o = dense.(k) in
                if o <> d && o <> exempt && cls.(o) = c then add_edge d o
              done)
           defs;
         List.iter remove defs;
         List.iter (fun r -> add (node r)) (Ptx.Instr.uses ins)
       done)
    flow.Cfg.Flow.blocks;
  { regs; index; lo; hi; tri; bits; adj = Array.map Array.of_list adj; edges = !edges }

let nodes g = List.sort Ptx.Reg.compare (Array.to_list g.regs)

let class_nodes g cls =
  let c = class_rank cls in
  (g.lo.(c), g.hi.(c))

let nodes_of_class g cls =
  let lo, hi = class_nodes g cls in
  List.init (hi - lo) (fun i -> g.regs.(lo + i))

let reg g v = g.regs.(v)
let adjacent g v = g.adj.(v)

let neighbors g r =
  match Ptx.Reg.Tbl.find_opt g.index r with
  | Some v -> Array.fold_left (fun s u -> RSet.add g.regs.(u) s) RSet.empty g.adj.(v)
  | None -> RSet.empty

let degree g r =
  match Ptx.Reg.Tbl.find_opt g.index r with
  | Some v -> Array.length g.adj.(v)
  | None -> 0

let interferes g a b =
  match (Ptx.Reg.Tbl.find_opt g.index a, Ptx.Reg.Tbl.find_opt g.index b) with
  | Some u, Some v when u <> v && rank_of a = rank_of b ->
    test_bit g.bits (bit ~lo:g.lo ~tri:g.tri (rank_of a) u v)
  | _ -> false

let num_edges g = g.edges
