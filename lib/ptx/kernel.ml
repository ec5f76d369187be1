type decl =
  { dname : string
  ; dspace : Types.space
  ; delem : Types.scalar
  ; dcount : int
  ; dalign : int
  }

type stmt =
  | L of string
  | I of Instr.t

type t =
  { name : string
  ; params : (string * Types.scalar) list
  ; decls : decl list
  ; body : stmt array
  }

let decl_bytes d = d.dcount * Types.width_bytes d.delem

let space_bytes space k =
  List.fold_left
    (fun acc d -> if Types.equal_space d.dspace space then acc + decl_bytes d else acc)
    0 k.decls

let shared_bytes k = space_bytes Types.Shared k
let local_bytes k = space_bytes Types.Local k

let instrs k =
  Array.to_list k.body
  |> List.filter_map (function
    | I i -> Some i
    | L _ -> None)

let instr_count k =
  Array.fold_left
    (fun acc s ->
       match s with
       | I _ -> acc + 1
       | L _ -> acc)
    0 k.body

let registers k =
  List.fold_left
    (fun acc i ->
       let add s r = Reg.Set.add r s in
       let acc = List.fold_left add acc (Instr.defs i) in
       List.fold_left add acc (Instr.uses i))
    Reg.Set.empty (instrs k)

let register_demand k =
  Reg.Set.fold
    (fun r acc -> acc + Types.class_units (Types.reg_class (Reg.ty r)))
    (registers k) 0

let labels k =
  Array.to_list k.body
  |> List.filter_map (function
    | L l -> Some l
    | I _ -> None)

let map_instrs f k =
  { k with
    body =
      Array.map
        (function
          | I i -> I (f i)
          | L l -> L l)
        k.body
  }

let fresh_reg_base k =
  Reg.Set.fold (fun r acc -> max acc (Reg.id r + 1)) (registers k) 0

(* Well-formedness checking.  Width compatibility follows PTX: a register
   may carry any type of the same width class, so [mov.u32] into an [f32]
   register is rejected only when the widths differ. *)
let width_compatible inst_ty reg_ty =
  match (Types.reg_class inst_ty, Types.reg_class reg_ty) with
  | Types.Cpred, Types.Cpred -> true
  | Types.C32, Types.C32 -> true
  | Types.C64, Types.C64 -> true
  (* a narrow (sub-32-bit) access still lives in a 32-bit register *)
  | Types.C32, _ | Types.C64, _ | Types.Cpred, _ -> false

let check_operand_ty what inst_ty op =
  match op with
  | Instr.Oreg r ->
    if width_compatible inst_ty (Reg.ty r) then Ok ()
    else
      Error
        (Printf.sprintf "%t: register %s of type %s used with type %s" what
           (Reg.name r)
           (Types.scalar_to_string (Reg.ty r))
           (Types.scalar_to_string inst_ty))
  | Instr.Oimm _ | Instr.Ofimm _ | Instr.Ospecial _ | Instr.Osym _
  | Instr.Oparam _ -> Ok ()

let check_address what k addr =
  match addr.Instr.base with
  | Instr.Oreg r ->
    (match Types.reg_class (Reg.ty r) with
     | Types.C64 | Types.C32 -> Ok ()
     | Types.Cpred ->
       Error (Printf.sprintf "%t: predicate register used as address" what))
  | Instr.Osym s ->
    if List.exists (fun d -> d.dname = s) k.decls then Ok ()
    else Error (Printf.sprintf "%t: undeclared symbol %s" what s)
  | Instr.Oparam p ->
    if List.mem_assoc p k.params then Ok ()
    else Error (Printf.sprintf "%t: unknown parameter %s" what p)
  | Instr.Oimm _ -> Ok ()
  | Instr.Ofimm _ | Instr.Ospecial _ ->
    Error (Printf.sprintf "%t: invalid address base" what)

let ( let* ) = Result.bind

let rec check_all f = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    check_all f rest

let check_instr k label_set idx (i : Instr.t) =
  (* spelled only when a check fails *)
  let what () = Printf.sprintf "instr %d (%s)" idx (Instr.to_string i) in
  let check_ops ty ops = check_all (check_operand_ty what ty) ops in
  let check_dst ty d = check_operand_ty what ty (Instr.Oreg d) in
  let check_target l =
    if List.mem l label_set then Ok ()
    else Error (Printf.sprintf "%t: unknown label %s" what l)
  in
  match i with
  | Instr.Mov (ty, d, a) | Instr.Unop (_, ty, d, a) ->
    let* () = check_dst ty d in
    check_ops ty [ a ]
  | Instr.Binop (_, ty, d, a, b) ->
    let* () = check_dst ty d in
    check_ops ty [ a; b ]
  | Instr.Mad (ty, d, a, b, c) ->
    let* () = check_dst ty d in
    check_ops ty [ a; b; c ]
  | Instr.Cvt (dst_ty, src_ty, d, a) ->
    let* () = check_dst dst_ty d in
    check_ops src_ty [ a ]
  | Instr.Setp (_, ty, d, a, b) ->
    let* () =
      if Types.equal_scalar (Reg.ty d) Types.Pred then Ok ()
      else Error (Printf.sprintf "%t: setp destination must be a predicate" what)
    in
    check_ops ty [ a; b ]
  | Instr.Selp (ty, d, a, b, p) ->
    let* () = check_dst ty d in
    let* () = check_ops ty [ a; b ] in
    if Types.equal_scalar (Reg.ty p) Types.Pred then Ok ()
    else Error (Printf.sprintf "%t: selp guard must be a predicate" what)
  | Instr.Ld (_, ty, d, addr) ->
    let* () = check_dst ty d in
    check_address what k addr
  | Instr.St (_, ty, addr, v) ->
    let* () = check_address what k addr in
    check_ops ty [ v ]
  | Instr.Bra l -> check_target l
  | Instr.Bra_pred (p, _, l) ->
    let* () =
      if Types.equal_scalar (Reg.ty p) Types.Pred then Ok ()
      else Error (Printf.sprintf "%t: branch guard must be a predicate" what)
    in
    check_target l
  | Instr.Bar_sync | Instr.Ret -> Ok ()

let validate k =
  let ls = labels k in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  match dup ls with
  | Some l -> Error (Printf.sprintf "duplicate label %s" l)
  | None ->
    let rec loop idx =
      if idx >= Array.length k.body then Ok ()
      else
        match k.body.(idx) with
        | L _ -> loop (idx + 1)
        | I i ->
          let* () = check_instr k ls idx i in
          loop (idx + 1)
    in
    loop 0
