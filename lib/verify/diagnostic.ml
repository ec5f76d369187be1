type severity =
  | Error
  | Warning
  | Info

type t =
  { code : string
  ; severity : severity
  ; kernel : string
  ; instr : int option
  ; block : int option
  ; message : string
  }

let make severity ?instr ?block ~kernel ~code message =
  { code; severity; kernel; instr; block; message }

let error ?instr ?block ~kernel ~code message =
  make Error ?instr ?block ~kernel ~code message

let warning ?instr ?block ~kernel ~code message =
  make Warning ?instr ?block ~kernel ~code message

let info ?instr ?block ~kernel ~code message =
  make Info ?instr ?block ~kernel ~code message

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds
let errors = List.filter is_error
let warnings ds = List.filter (fun d -> not (is_error d)) ds

let pos d =
  match d.instr with
  | Some i -> i
  | None -> max_int

let compare a b =
  Stdlib.compare
    (a.kernel, pos a, a.code, a.message)
    (b.kernel, pos b, b.code, b.message)

let sort ds = List.sort_uniq compare ds

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp fmt d =
  let loc =
    match d.instr with
    | Some i -> Printf.sprintf "[%d]" i
    | None -> ""
  in
  Format.fprintf fmt "%s%s: %s %s: %s" d.kernel loc
    (severity_to_string d.severity)
    d.code d.message

let to_string d = Format.asprintf "%a" pp d

let render ds =
  match sort ds with
  | [] -> "ok"
  | ds -> String.concat "\n" (List.map to_string ds)

let all_codes =
  [ ("V101", "operand or destination register width incompatible with the instruction type")
  ; ("V102", "setp destination / selp or branch guard is not a predicate register")
  ; ("V103", "predicate register used as an address base")
  ; ("V104", "illegal state space for this memory operation")
  ; ("V105", "reference to an undeclared symbol or unknown parameter")
  ; ("V106", "ill-formed address base operand")
  ; ("V107", "branch targets an unknown label")
  ; ("V108", "duplicate label")
  ; ("V109", "ill-formed conversion (predicate endpoint)")
  ; ("V110", "static symbol access out of the declared bounds")
  ; ("V111", "immediate kind does not match the instruction type")
  ; ("V112", "kernel can fall off the end of the body without ret")
  ; ("V201", "register may be read before initialization on some path")
  ; ("V301", "bar.sync under divergent control flow (potential deadlock)")
  ; ("V302", "ret under divergent control flow")
  ; ("V401", "whole thread block stores divergent values to a single shared address")
  ; ("V402", "shared spill-slot access breaks per-thread private addressing")
  ; ("V403", "possibly conflicting shared accesses without an intervening barrier")
  ; ("V501", "allocation assigns one physical register to simultaneously-live values")
  ; ("V502", "allocation exceeds the physical register budget")
  ; ("V503", "spill slot may be read before it is written")
  ; ("V504", "spill slot layout overlaps or access width mismatch")
  ; ("V505", "allocated kernel diverges from the audited assignment")
  ; ("V601", "machine code structurally diverges from the allocated PTX kernel")
  ; ("V602", "machine register file budget exceeded or unit ranges overlap")
  ; ("V603", "machine live ranges disagree with the PTX liveness through the register map")
  ; ("V605", "scalar register written from a lane-dependent source")
  ; ("P101", "MAXLIVE exceeds the register budget: spilling is inevitable")
  ; ("P102", "register pressure hotspot concentrated in one block")
  ; ("P201", "global/local access may be uncoalesced (no affine address proof)")
  ; ("P202", "strided access splits each warp transaction into multiple segments")
  ; ("P301", "shared access provably causes N-way bank conflicts")
  ; ("P302", "shared access may cause bank conflicts (stride not provable)")
  ; ("P401", "possibly divergent branch inside a loop")
  ; ("P402", "possibly divergent branch")
  ; ("P501", "loop trip count not statically provable")
  ; ("P502", "loop provably never executes")
  ; ("S401", "shared access provably outside its segment or per-thread spill sub-stack")
  ; ("S402", "local-frame or parameter-bank access provably out of bounds")
  ; ("S403", "access bounds not statically provable: dynamic check retained")
  ; ("E101", "transformation edge proved equivalent by symbolic co-execution")
  ; ("E201", "transformation edge refuted: concrete replayed counterexample")
  ; ("E301", "equivalence unknown: static proof failed, no divergence found")
  ]

let describe code =
  match List.assoc_opt code all_codes with
  | Some d -> d
  | None -> "unknown diagnostic code"

let codes_listing ?prefix () =
  let selected =
    match prefix with
    | None -> all_codes
    | Some p ->
      List.filter (fun (c, _) -> String.starts_with ~prefix:p c) all_codes
  in
  String.concat "\n"
    (List.map (fun (c, d) -> Printf.sprintf "%s  %s" c d) selected)
