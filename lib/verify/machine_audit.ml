module D = Diagnostic
module I = Machine.Isa
module L = Machine.Lower

module MRegSet = Set.Make (struct
    type t = I.reg

    let compare = Stdlib.compare
  end)

module PRegMap = Ptx.Reg.Map

let file_name = I.file_to_string

(* every source slot of an instruction, in operand order *)
let srcs_of (ins : I.insn) =
  match ins with
  | I.Mov (_, _, a) | I.Unop (_, _, _, a) | I.Cvt (_, _, _, a) -> [ a ]
  | I.Binop (_, _, _, a, b) | I.Setp (_, _, _, a, b) -> [ a; b ]
  | I.Mad (_, _, a, b, c) -> [ a; b; c ]
  | I.Selp (_, _, a, b, p) -> [ a; b; I.Rsrc p ]
  | I.Ld (_, _, _, ad) -> [ ad.I.abase ]
  | I.St (_, _, ad, v) -> [ ad.I.abase; v ]
  | I.Bra_pred (p, _, _) -> [ I.Rsrc p ]
  | I.Bra _ | I.Bar | I.Exit -> []

let check (t : L.t) =
  let a = t.L.alloc in
  let kernel = t.L.name in
  let image = t.L.image in
  let flow = image.Gpusim.Image.flow in
  let code = t.L.code in
  let diags = ref [] in
  let err ?instr code msg =
    diags := D.error ?instr ~kernel ~code msg :: !diags
  in
  (* ----- V601: structural correspondence with the allocated PTX,
     walked constructor by constructor without trusting the lowering's
     own register map; the map is rebuilt from the instruction pairing
     and checked for consistency ----- *)
  let seen_map : I.reg PRegMap.t ref = ref PRegMap.empty in
  let inverse = Hashtbl.create 64 in
  let reg_ok i (r : Ptx.Reg.t) (m : I.reg) =
    if not (Ptx.Types.equal_scalar (Ptx.Reg.ty r) m.I.ty) then
      err ~instr:i "V601"
        (Printf.sprintf "register %s lowered with type %s"
           (Ptx.Reg.name r)
           (Ptx.Types.scalar_to_string m.I.ty));
    let expected_file =
      if Ptx.Types.reg_class (Ptx.Reg.ty r) = Ptx.Types.Cpred then I.Pred
      else if Regalloc.Allocator.is_scalar_phys a r then I.Scalar
      else I.Vector
    in
    if m.I.file <> expected_file then
      err ~instr:i "V601"
        (Printf.sprintf "register %s lowered into the %s file, expected %s"
           (Ptx.Reg.name r) (file_name m.I.file) (file_name expected_file));
    (match PRegMap.find_opt r !seen_map with
     | Some m' when not (I.equal_reg m m') ->
       err ~instr:i "V601"
         (Printf.sprintf "register %s maps to both %s and %s"
            (Ptx.Reg.name r) (I.reg_name m') (I.reg_name m))
     | Some _ -> ()
     | None ->
       seen_map := PRegMap.add r m !seen_map;
       (match Hashtbl.find_opt inverse m with
        | Some r' when not (Ptx.Reg.equal r r') ->
          err ~instr:i "V601"
            (Printf.sprintf "machine register %s is the image of both %s and %s"
               (I.reg_name m) (Ptx.Reg.name r') (Ptx.Reg.name r))
        | Some _ -> ()
        | None -> Hashtbl.replace inverse m r))
  in
  let src_ok i (op : Ptx.Instr.operand) (s : I.src) =
    match (op, s) with
    | Ptx.Instr.Oreg r, I.Rsrc m -> reg_ok i r m
    | Ptx.Instr.Oimm v, I.Imm v' ->
      if not (Int64.equal v v') then
        err ~instr:i "V601" (Printf.sprintf "immediate %Ld lowered as %Ld" v v')
    | Ptx.Instr.Ofimm f, I.Fimm f' ->
      if Int64.bits_of_float f <> Int64.bits_of_float f' then
        err ~instr:i "V601" (Printf.sprintf "immediate %h lowered as %h" f f')
    | Ptx.Instr.Ospecial sp, I.Spec sp' ->
      if sp <> sp' then err ~instr:i "V601" "special register changed in lowering"
    | Ptx.Instr.Oparam p, I.Param slot ->
      if
        slot < 0
        || slot >= Array.length t.L.params
        || not (String.equal t.L.params.(slot) p)
      then
        err ~instr:i "V601"
          (Printf.sprintf "parameter %s lowered to the wrong slot" p)
    | Ptx.Instr.Osym sym, I.Imm off ->
      (match List.assoc_opt sym image.Gpusim.Image.shared_offsets with
       | Some o when Int64.of_int o = off -> ()
       | Some _ | None ->
         err ~instr:i "V601"
           (Printf.sprintf "symbol %s lowered to a wrong shared offset" sym))
    | Ptx.Instr.Osym sym, I.Loc off ->
      (match List.assoc_opt sym image.Gpusim.Image.local_offsets with
       | Some o when o = off -> ()
       | Some _ | None ->
         err ~instr:i "V601"
           (Printf.sprintf "symbol %s lowered to a wrong local offset" sym))
    | _ ->
      err ~instr:i "V601"
        (Printf.sprintf "operand kind changed in lowering: %s"
           (I.insn_to_string code.(i)))
  in
  let addr_ok i (ad : Ptx.Instr.address) (mad : I.addr) =
    src_ok i ad.Ptx.Instr.base mad.I.abase;
    if ad.Ptx.Instr.offset <> mad.I.aoffset then
      err ~instr:i "V601" "address offset changed in lowering"
  in
  let target_ok i l pc =
    if Cfg.Flow.target_index flow l <> pc then
      err ~instr:i "V601" "branch target does not match the label's index"
  in
  let n_ptx = Array.length flow.Cfg.Flow.instrs in
  if Array.length code <> n_ptx then
    err "V601"
      (Printf.sprintf "machine code has %d instructions, PTX body has %d"
         (Array.length code) n_ptx)
  else
    Array.iteri
      (fun i (p : Ptx.Instr.t) ->
         match (p, code.(i)) with
         | Ptx.Instr.Mov (ty, d, x), I.Mov (ty', d', x') when ty = ty' ->
           reg_ok i d d';
           src_ok i x x'
         | Ptx.Instr.Binop (op, ty, d, x, y), I.Binop (op', ty', d', x', y')
           when op = op' && ty = ty' ->
           reg_ok i d d';
           src_ok i x x';
           src_ok i y y'
         | Ptx.Instr.Mad (ty, d, x, y, z), I.Mad (ty', d', x', y', z')
           when ty = ty' ->
           reg_ok i d d';
           src_ok i x x';
           src_ok i y y';
           src_ok i z z'
         | Ptx.Instr.Unop (op, ty, d, x), I.Unop (op', ty', d', x')
           when op = op' && ty = ty' ->
           reg_ok i d d';
           src_ok i x x'
         | Ptx.Instr.Cvt (dt, st, d, x), I.Cvt (dt', st', d', x')
           when dt = dt' && st = st' ->
           reg_ok i d d';
           src_ok i x x'
         | Ptx.Instr.Setp (c, ty, d, x, y), I.Setp (c', ty', d', x', y')
           when c = c' && ty = ty' ->
           reg_ok i d d';
           src_ok i x x';
           src_ok i y y'
         | Ptx.Instr.Selp (ty, d, x, y, p), I.Selp (ty', d', x', y', p')
           when ty = ty' ->
           reg_ok i d d';
           src_ok i x x';
           src_ok i y y';
           reg_ok i p p'
         | Ptx.Instr.Ld (sp, ty, d, ad), I.Ld (sp', ty', d', ad')
           when sp = sp' && ty = ty' ->
           reg_ok i d d';
           addr_ok i ad ad'
         | Ptx.Instr.St (sp, ty, ad, v), I.St (sp', ty', ad', v')
           when sp = sp' && ty = ty' ->
           addr_ok i ad ad';
           src_ok i v v'
         | Ptx.Instr.Bra l, I.Bra pc -> target_ok i l pc
         | Ptx.Instr.Bra_pred (p, sense, l), I.Bra_pred (p', sense', pc)
           when sense = sense' ->
           reg_ok i p p';
           target_ok i l pc
         | Ptx.Instr.Bar_sync, I.Bar | Ptx.Instr.Ret, I.Exit -> ()
         | _, m ->
           err ~instr:i "V601"
             (Printf.sprintf "instruction lowered to a different shape: %s"
                (I.insn_to_string m)))
      flow.Cfg.Flow.instrs;
  (* ----- V602: per-file unit budgets and storage-overlap freedom,
     recounted from the machine code alone ----- *)
  let extents = Hashtbl.create 64 in
  Array.iter
    (fun ins ->
       List.iter
         (fun (r : I.reg) ->
            Hashtbl.replace extents (r.I.file, r.I.idx, I.units r) ())
         (I.defs ins @ I.uses ins))
    code;
  let per_file f =
    Hashtbl.fold
      (fun (file, idx, u) () acc -> if file = f then (idx, u) :: acc else acc)
      extents []
    |> List.sort_uniq compare
  in
  List.iter
    (fun file ->
       let exts = per_file file in
       let span = List.fold_left (fun acc (i, u) -> max acc (i + u)) 0 exts in
       let budget =
         match file with
         | I.Vector -> Some a.Regalloc.Allocator.reg_limit
         | I.Scalar ->
           if a.Regalloc.Allocator.scalar_limit > 0 then
             Some a.Regalloc.Allocator.scalar_limit
           else if span > 0 then Some 0 (* scalar file disabled: any use is over *)
           else None
         | I.Pred -> None
       in
       (match budget with
        | Some b when span > b ->
          err "V602"
            (Printf.sprintf "%s file spans %d units, budget %d"
               (file_name file) span b)
        | Some _ | None -> ());
       let rec overlaps = function
         | (i1, u1) :: ((i2, _) :: _ as rest) ->
           if i1 <> i2 && i1 + u1 > i2 then
             err "V602"
               (Printf.sprintf
                  "%s file: unit ranges at %d(+%d) and %d overlap"
                  (file_name file) i1 u1 i2);
           overlaps rest
         | [] | [ _ ] -> ()
       in
       overlaps exts)
    [ I.Vector; I.Scalar; I.Pred ];
  (* ----- V603: machine live ranges, recomputed by a backward fixpoint
     over the machine code, must agree with a fresh PTX liveness of the
     allocated kernel pushed through the register map ----- *)
  let n = Array.length code in
  if n = n_ptx && n > 0 then begin
    let live_in = Array.make n MRegSet.empty in
    let live_out = Array.make n MRegSet.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = n - 1 downto 0 do
        let out =
          List.fold_left
            (fun acc s -> MRegSet.union acc live_in.(s))
            MRegSet.empty
            (I.succs code.(i) ~pc:i ~code_len:n)
        in
        let inn =
          List.fold_left
            (fun acc r -> MRegSet.add r acc)
            (List.fold_left
               (fun acc r -> MRegSet.remove r acc)
               out
               (I.defs code.(i)))
            (I.uses code.(i))
        in
        if
          not (MRegSet.equal out live_out.(i) && MRegSet.equal inn live_in.(i))
        then begin
          live_out.(i) <- out;
          live_in.(i) <- inn;
          changed := true
        end
      done
    done;
    let ptx_live = Cfg.Liveness.compute flow in
    let mapped set =
      Ptx.Reg.Set.fold
        (fun r acc ->
           match PRegMap.find_opt r !seen_map with
           | Some m -> MRegSet.add m acc
           | None -> acc)
        set MRegSet.empty
    in
    Array.iteri
      (fun i _ ->
         let expect = mapped ptx_live.Cfg.Liveness.live_out.(i) in
         if not (MRegSet.equal expect live_out.(i)) then
           err ~instr:i "V603"
             (Printf.sprintf
                "machine live-out has %d registers, PTX liveness maps to %d"
                (MRegSet.cardinal live_out.(i))
                (MRegSet.cardinal expect)))
      code
  end;
  (* ----- V605: scalar writes must not depend on the lane ----- *)
  Array.iteri
    (fun i ins ->
       if List.exists (fun (r : I.reg) -> r.I.file = I.Scalar) (I.defs ins)
       then
         List.iter
           (fun (s : I.src) ->
              match s with
              | I.Rsrc r when r.I.file = I.Vector ->
                err ~instr:i "V605"
                  (Printf.sprintf "scalar destination reads vector register %s"
                     (I.reg_name r))
              | I.Rsrc r when r.I.file = I.Pred ->
                err ~instr:i "V605"
                  (Printf.sprintf
                     "scalar destination reads per-lane predicate %s"
                     (I.reg_name r))
              | I.Spec (Ptx.Reg.Tid_x | Ptx.Reg.Laneid) ->
                err ~instr:i "V605"
                  "scalar destination reads a lane-dependent special register"
              | I.Rsrc _ | I.Imm _ | I.Fimm _ | I.Spec _ | I.Param _
              | I.Loc _ -> ())
           (srcs_of ins))
    code;
  D.sort !diags
