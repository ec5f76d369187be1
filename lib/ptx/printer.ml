(* Registers are emitted grouped by scalar type in [.reg] directives so the
   parser can rebuild the typed register environment. Float immediates are
   printed with full precision (%.17g) to round-trip exactly. *)

(* [Printf.sprintf "%.17g"] less the format interpreter: the same C
   formatter that [Printf] and [string_of_float] end in *)
external format_float : string -> float -> string = "caml_format_float"

let exact = format_float "%.17g"

let kernel_to_string (k : Kernel.t) =
  let b = Buffer.create 4096 in
  let str = Buffer.add_string b in
  let strs = List.iter str in
  let scalar = Types.scalar_to_string in
  strs [ ".entry "; k.name; " (\n" ];
  let n = List.length k.params in
  List.iteri
    (fun i (name, ty) ->
       strs [ "  .param ."; scalar ty; " "; name; (if i = n - 1 then "\n" else ",\n") ])
    k.params;
  str ")\n{\n";
  List.iter
    (fun (d : Kernel.decl) ->
       strs
         [ "  ."; Types.space_to_string d.dspace; " .align "; string_of_int d.dalign
         ; " ."; scalar d.delem; " "; d.dname; "["; string_of_int d.dcount; "];\n" ])
    k.decls;
  (* one [.reg] line per type, in declaration order, ids ascending *)
  let regs = Reg.Set.elements (Kernel.registers k) in
  List.iter
    (fun ty ->
       match List.filter (fun r -> Types.equal_scalar (Reg.ty r) ty) regs with
       | [] -> ()
       | r :: rs ->
         strs [ "  .reg ."; scalar ty; " " ];
         Reg.add_name b r;
         List.iter (fun r -> str ", "; Reg.add_name b r) rs;
         str ";\n")
    Types.all_scalars;
  Array.iter
    (function
      | Kernel.L l -> strs [ l; ":\n" ]
      | Kernel.I i ->
        str "  ";
        Instr.emit ~float:exact b i;
        str "\n")
    k.body;
  str "}\n";
  Buffer.contents b
