module A = Absint.Analysis
module Dom = Absint.Dom
module Access = Absint.Access
module Trip = Absint.Trip
module Pressure = Absint.Pressure

type report =
  { kernel : string
  ; access : Access.t
  ; loops : Trip.loop list
  ; pressure : Pressure.t
  ; diags : Diagnostic.t list
  }

let space_name = Ptx.Types.space_to_string

let op_name store = if store then "store" else "load"

(* P1xx — register pressure *)
let pressure_diags ~kernel ?reg_budget (flow : Cfg.Flow.t) (p : Pressure.t) =
  let budget =
    match reg_budget with
    | Some b when p.Pressure.maxlive > b ->
      [ Diagnostic.warning ~kernel ~code:"P101" ~block:p.Pressure.hot_block
          (Printf.sprintf
             "MAXLIVE %d exceeds the register budget %d (block %d): spilling \
              is inevitable at this limit"
             p.Pressure.maxlive b p.Pressure.hot_block)
      ]
    | _ -> []
  in
  (* hotspot: one block concentrates the pressure — its MAXLIVE is at
     least twice the mean over non-empty blocks (and high enough to
     matter). Shrinking live ranges there lowers the whole kernel's
     register demand. *)
  let hotspot =
    let live = ref 0 and sum = ref 0 in
    Array.iteri
      (fun b pr ->
         let blk = flow.Cfg.Flow.blocks.(b) in
         if blk.Cfg.Flow.last >= blk.Cfg.Flow.first then begin
           incr live;
           sum := !sum + pr
         end)
      p.Pressure.block_pressure;
    if
      !live > 1
      && p.Pressure.maxlive >= 16
      && p.Pressure.maxlive * !live >= 2 * !sum
    then
      [ Diagnostic.warning ~kernel ~code:"P102" ~block:p.Pressure.hot_block
          (Printf.sprintf
             "register pressure hotspot: block %d holds %d live units, at \
              least twice the kernel mean"
             p.Pressure.hot_block p.Pressure.maxlive)
      ]
    else []
  in
  budget @ hotspot

(* P2xx / P3xx — memory access quality *)
let mem_diags ~kernel ~warp_size (m : Access.mem) =
  let what = Printf.sprintf "%s %s" (space_name m.Access.space) (op_name m.Access.store) in
  match m.Access.space with
  | Ptx.Types.Shared ->
    (match m.Access.bank_bound with
     | Some d when d > 1 ->
       [ Diagnostic.warning ~kernel ~code:"P301" ~instr:m.Access.pc
           (Printf.sprintf
              "%s provably serialises into %d-way bank conflicts (lane \
               stride %d bytes)"
              what d m.Access.addr.Dom.aff.Dom.tid)
       ]
     | Some _ -> []
     | None ->
       [ Diagnostic.warning ~kernel ~code:"P302" ~instr:m.Access.pc
           (Printf.sprintf
              "%s may cause bank conflicts: the lane stride is not \
               statically provable"
              what)
       ])
  | Ptx.Types.Global | Ptx.Types.Local ->
    (match m.Access.cls with
     | Access.Coalesced _ -> []
     | Access.Strided (s, b) ->
       [ Diagnostic.warning ~kernel ~code:"P202" ~instr:m.Access.pc
           (Printf.sprintf
              "strided %s: the %d-byte lane stride splits each warp access \
               into up to %d segments"
              what s b)
       ]
     | Access.Scattered ->
       [ Diagnostic.warning ~kernel ~code:"P201" ~instr:m.Access.pc
           (Printf.sprintf
              "%s may be uncoalesced: the address is not a provable affine \
               function of the thread id (up to %d segments per warp)"
              what warp_size)
       ])
  | _ -> []

(* P4xx — branch divergence *)
let branch_diags ~kernel (b : Access.branch) =
  if b.Access.uniform then []
  else if b.Access.bdepth > 0 then
    [ Diagnostic.warning ~kernel ~code:"P401" ~instr:b.Access.bpc
        (Printf.sprintf
           "possibly divergent branch inside a loop (depth %d): the warp may \
            serialise both paths on every iteration"
           b.Access.bdepth)
    ]
  else
    [ Diagnostic.warning ~kernel ~code:"P402" ~instr:b.Access.bpc
        "possibly divergent branch: both paths may execute under partial masks"
    ]

(* P5xx — loops *)
let loop_diags ~kernel (flow : Cfg.Flow.t) (l : Trip.loop) =
  let at = flow.Cfg.Flow.blocks.(l.Trip.header).Cfg.Flow.first in
  match l.Trip.trips with
  | Some 0 ->
    [ Diagnostic.warning ~kernel ~code:"P502" ~instr:at ~block:l.Trip.header
        (Printf.sprintf "loop at block %d provably never executes" l.Trip.header)
    ]
  | Some _ -> []
  | None ->
    [ Diagnostic.warning ~kernel ~code:"P501" ~instr:at ~block:l.Trip.header
        (Printf.sprintf "loop at block %d: trip count not statically provable"
           l.Trip.header)
    ]

let report ?reg_budget ?(warp_size = 32) ?(line = 128) ?(banks = 32) an =
  let flow = A.flow an in
  let kernel = flow.Cfg.Flow.kernel.Ptx.Kernel.name in
  let access = Access.collect ~warp_size ~line ~banks an in
  let loops = Trip.loops an in
  let pressure = Pressure.compute flow in
  let diags =
    pressure_diags ~kernel ?reg_budget flow pressure
    @ List.concat_map (mem_diags ~kernel ~warp_size) access.Access.mems
    @ List.concat_map (branch_diags ~kernel) access.Access.branches
    @ List.concat_map (loop_diags ~kernel flow) loops
  in
  { kernel; access; loops; pressure; diags = Diagnostic.sort diags }

let lint_kernel ?block_size ?num_blocks ?params ?reg_budget ?warp_size ?line
    ?banks k =
  let flow = Cfg.Flow.of_kernel k in
  let an = A.run ?block_size ?num_blocks ?params flow in
  report ?reg_budget ?warp_size ?line ?banks an
