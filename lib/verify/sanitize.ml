module A = Absint.Analysis
module Bounds = Absint.Bounds

type discharge =
  { total : int
  ; safe : int
  ; oob : int
  ; residual : int
  }

type report =
  { kernel : string
  ; bounds : Bounds.t
  ; discharge : discharge
  ; diags : Diagnostic.t list
  }

let proven_pct d =
  if d.total = 0 then 100.0 else 100.0 *. float_of_int d.safe /. float_of_int d.total

let space_name = Ptx.Types.space_to_string
let op_name store = if store then "store" else "load"

let diag_of_access ~kernel (a : Bounds.access) =
  let what =
    Printf.sprintf "%dB %s %s: %s" a.Bounds.width (space_name a.Bounds.space)
      (op_name a.Bounds.store) a.Bounds.reason
  in
  match a.Bounds.verdict with
  | Bounds.Safe -> None
  | Bounds.Oob ->
    let code =
      match a.Bounds.space with
      | Ptx.Types.Shared -> "S401"
      | _ -> "S402"
    in
    Some (Diagnostic.error ~instr:a.Bounds.pc ~kernel ~code what)
  | Bounds.Unknown ->
    Some (Diagnostic.warning ~instr:a.Bounds.pc ~kernel ~code:"S403" what)

let of_analysis an =
  let k = (A.flow an).Cfg.Flow.kernel in
  let kernel = k.Ptx.Kernel.name in
  let bounds = Bounds.analyze an in
  let safe, oob, residual = Bounds.counts bounds in
  let discharge = { total = safe + oob + residual; safe; oob; residual } in
  let diags =
    Diagnostic.sort
      (List.filter_map (diag_of_access ~kernel) bounds.Bounds.accesses)
  in
  { kernel; bounds; discharge; diags }

let sanitize_kernel ?block_size ?num_blocks ?params k =
  let flow = Cfg.Flow.of_kernel k in
  of_analysis (A.run ?block_size ?num_blocks ?params flow)

let mask ?force r = Bounds.mask ?force r.bounds
let check_kernel ?block_size k = (sanitize_kernel ?block_size k).diags
