open Ptx
module D = Diagnostic

let width_ok inst_ty reg_ty =
  Types.reg_class inst_ty = Types.reg_class reg_ty

let check (k : Kernel.t) =
  let kernel = k.Kernel.name in
  let diags = ref [] in
  let err ~instr code msg = diags := D.error ~instr ~kernel ~code msg :: !diags in
  let warn ~instr code msg =
    diags := D.warning ~instr ~kernel ~code msg :: !diags
  in
  (* labels *)
  let labels = Kernel.labels k in
  let rec dups seen = function
    | [] -> ()
    | l :: rest ->
      if List.mem l seen then
        diags :=
          D.error ~kernel ~code:"V108" (Printf.sprintf "duplicate label %s" l)
          :: !diags
      else ();
      dups (l :: seen) rest
  in
  dups [] labels;
  let find_decl s = List.find_opt (fun d -> d.Kernel.dname = s) k.Kernel.decls in
  let check_operand ~instr ty what op =
    match op with
    | Instr.Oreg r ->
      if not (width_ok ty (Reg.ty r)) then
        err ~instr "V101"
          (Printf.sprintf "%s: register %s of type %s used with type %s" what
             (Reg.name r)
             (Types.scalar_to_string (Reg.ty r))
             (Types.scalar_to_string ty))
    | Instr.Oimm _ ->
      if Types.is_float ty then
        warn ~instr "V111"
          (Printf.sprintf "%s: integer immediate with %s-typed instruction"
             what (Types.scalar_to_string ty))
    | Instr.Ofimm _ ->
      if not (Types.is_float ty) then
        warn ~instr "V111"
          (Printf.sprintf "%s: float immediate with %s-typed instruction" what
             (Types.scalar_to_string ty))
    | Instr.Osym s ->
      if find_decl s = None then
        err ~instr "V105" (Printf.sprintf "%s: undeclared symbol %s" what s)
    | Instr.Oparam p ->
      if not (List.mem_assoc p k.Kernel.params) then
        err ~instr "V105" (Printf.sprintf "%s: unknown parameter %s" what p)
    | Instr.Ospecial _ -> ()
  in
  let check_dst ~instr ty what d = check_operand ~instr ty what (Instr.Oreg d) in
  let check_pred ~instr what (r : Reg.t) =
    if not (Types.equal_scalar (Reg.ty r) Types.Pred) then
      err ~instr "V102"
        (Printf.sprintf "%s: %s is not a predicate register" what (Reg.name r))
  in
  let check_address ~instr space ty what (addr : Instr.address) =
    let width = Types.width_bytes ty in
    (match addr.Instr.base with
     | Instr.Oreg r ->
       (match Types.reg_class (Reg.ty r) with
        | Types.C64 | Types.C32 -> ()
        | Types.Cpred ->
          err ~instr "V103"
            (Printf.sprintf "%s: predicate register %s used as address base"
               what (Reg.name r)))
     | Instr.Osym s ->
       (match find_decl s with
        | None ->
          err ~instr "V105" (Printf.sprintf "%s: undeclared symbol %s" what s)
        | Some d ->
          if not (Types.equal_space d.Kernel.dspace space) then
            err ~instr "V104"
              (Printf.sprintf "%s: %s-space access to symbol %s declared in %s"
                 what
                 (Types.space_to_string space)
                 s
                 (Types.space_to_string d.Kernel.dspace));
          let bytes = Kernel.decl_bytes d in
          if addr.Instr.offset < 0 || addr.Instr.offset + width > bytes then
            warn ~instr "V110"
              (Printf.sprintf
                 "%s: access at %s+%d (width %d) outside the %d declared bytes"
                 what s addr.Instr.offset width bytes))
     | Instr.Oparam p ->
       if not (List.mem_assoc p k.Kernel.params) then
         err ~instr "V105" (Printf.sprintf "%s: unknown parameter %s" what p)
     | Instr.Oimm _ -> ()
     | Instr.Ofimm _ | Instr.Ospecial _ ->
       err ~instr "V106" (Printf.sprintf "%s: invalid address base operand" what));
    (* space legality mirrors the runtime rejections of the reference
       interpreter in test/support *)
    match space with
    | Types.Param ->
      (match addr.Instr.base with
       | Instr.Oparam _ -> ()
       | Instr.Oreg _ | Instr.Oimm _ | Instr.Ofimm _ | Instr.Ospecial _
       | Instr.Osym _ ->
         err ~instr "V104"
           (Printf.sprintf "%s: ld.param requires a parameter address base" what))
    | Types.Reg | Types.Local | Types.Shared | Types.Global | Types.Const -> ()
  in
  let check_target ~instr what l =
    if not (List.mem l labels) then
      err ~instr "V107" (Printf.sprintf "%s: unknown label %s" what l)
  in
  let last_falls = ref false in
  let last_idx = ref (-1) in
  let idx = ref 0 in
  Array.iter
    (function
      | Kernel.L _ -> ()
      | Kernel.I i ->
        let instr = !idx in
        incr idx;
        last_falls := Instr.falls_through i;
        last_idx := instr;
        let what = Instr.to_string i in
        (match i with
         | Instr.Mov (ty, d, a) | Instr.Unop (_, ty, d, a) ->
           check_dst ~instr ty what d;
           check_operand ~instr ty what a
         | Instr.Binop (_, ty, d, a, b) ->
           check_dst ~instr ty what d;
           check_operand ~instr ty what a;
           check_operand ~instr ty what b
         | Instr.Mad (ty, d, a, b, c) ->
           check_dst ~instr ty what d;
           List.iter (check_operand ~instr ty what) [ a; b; c ]
         | Instr.Cvt (dst_ty, src_ty, d, a) ->
           if
             Types.equal_scalar dst_ty Types.Pred
             || Types.equal_scalar src_ty Types.Pred
           then
             err ~instr "V109"
               (Printf.sprintf "%s: conversion to or from a predicate" what)
           else begin
             check_dst ~instr dst_ty what d;
             check_operand ~instr src_ty what a
           end
         | Instr.Setp (_, ty, d, a, b) ->
           check_pred ~instr what d;
           check_operand ~instr ty what a;
           check_operand ~instr ty what b
         | Instr.Selp (ty, d, a, b, p) ->
           check_dst ~instr ty what d;
           check_operand ~instr ty what a;
           check_operand ~instr ty what b;
           check_pred ~instr what p
         | Instr.Ld (space, ty, d, addr) ->
           (match space with
            | Types.Reg ->
              err ~instr "V104"
                (Printf.sprintf "%s: ld from the register state space" what)
            | Types.Param ->
              (* the loaded width must match the declared parameter *)
              (match addr.Instr.base with
               | Instr.Oparam p ->
                 (match List.assoc_opt p k.Kernel.params with
                  | Some pty when not (width_ok ty pty) ->
                    err ~instr "V101"
                      (Printf.sprintf
                         "%s: parameter %s of type %s loaded with type %s" what
                         p
                         (Types.scalar_to_string pty)
                         (Types.scalar_to_string ty))
                  | Some _ | None -> ())
               | _ -> ())
            | Types.Local | Types.Shared | Types.Global | Types.Const -> ());
           check_dst ~instr ty what d;
           check_address ~instr space ty what addr
         | Instr.St (space, ty, addr, v) ->
           (match space with
            | Types.Reg | Types.Param | Types.Const ->
              err ~instr "V104"
                (Printf.sprintf "%s: st to the %s state space" what
                   (Types.space_to_string space))
            | Types.Local | Types.Shared | Types.Global -> ());
           check_address ~instr space ty what addr;
           check_operand ~instr ty what v
         | Instr.Bra l -> check_target ~instr what l
         | Instr.Bra_pred (p, _, l) ->
           check_pred ~instr what p;
           check_target ~instr what l
         | Instr.Bar_sync | Instr.Ret -> ()))
    k.Kernel.body;
  if !last_idx >= 0 && !last_falls then
    warn ~instr:!last_idx "V112"
      "control can fall off the end of the kernel body";
  D.sort !diags
