type placement =
  { reg : Ptx.Reg.t
  ; space : Ptx.Types.space
  ; offset : int
  }

type spec =
  { placements : placement list
  ; local_bytes : int
  ; shared_bytes_per_thread : int
  ; remat : (Ptx.Reg.t * Ptx.Instr.operand) list
  }

let align_up x a = (x + a - 1) / a * a

let layout ?(remat = fun _ -> None) ~to_shared regs =
  let remats, regs =
    List.partition_map
      (fun r ->
         match remat r with
         | Some op -> Either.Left (r, op)
         | None -> Either.Right r)
      regs
  in
  let shared_regs, local_regs = List.partition to_shared regs in
  let width r = Ptx.Types.width_bytes (Ptx.Reg.ty r) in
  let by_width rs =
    List.sort (fun a b -> compare (width b, Ptx.Reg.id a) (width a, Ptx.Reg.id b)) rs
  in
  let assign space rs =
    let off = ref 0 in
    let ps =
      List.map
        (fun r ->
           let w = width r in
           let o = align_up !off w in
           off := o + w;
           { reg = r; space; offset = o })
        (by_width rs)
    in
    (ps, align_up !off 8)
  in
  let local_ps, local_bytes = assign Ptx.Types.Local local_regs in
  let shared_ps, shared_bytes = assign Ptx.Types.Shared shared_regs in
  (* pad the per-thread shared stride to an odd word count so that
     consecutive threads' slots fall into different banks (the classic
     shared-memory padding trick; without it a stride that is a multiple
     of the bank count serialises the whole warp) *)
  let shared_bytes =
    if shared_bytes > 0 && shared_bytes / 4 mod 2 = 0 then shared_bytes + 4
    else shared_bytes
  in
  { placements = local_ps @ shared_ps
  ; local_bytes
  ; shared_bytes_per_thread = shared_bytes
  ; remat = remats
  }

type stats =
  { num_local : int
  ; num_shared : int
  ; num_other : int
  ; num_remat : int
  }

let local_stack_sym = "SpillStack"
let shared_stack_sym = "SpillShm"

(* Recover the per-thread byte stride of the shared spill sub-stacks
   from an allocated kernel: the decl was emitted as
   [bytes_per_thread * block_size] B8 elements. *)
let shared_stride_of_kernel ~block_size (k : Ptx.Kernel.t) =
  if block_size <= 0 then None
  else
    List.find_map
      (fun (d : Ptx.Kernel.decl) ->
         if
           d.Ptx.Kernel.dname = shared_stack_sym
           && d.Ptx.Kernel.dspace = Ptx.Types.Shared
         then begin
           let bytes = Ptx.Kernel.decl_bytes d in
           if bytes mod block_size = 0 && bytes / block_size > 0 then
             Some (bytes / block_size)
           else None
         end
         else None)
      k.Ptx.Kernel.decls

let apply ~block_size (k : Ptx.Kernel.t) (spec : spec) =
  let placements = spec.placements in
  if placements = [] && spec.remat = [] then
    (k, { num_local = 0; num_shared = 0; num_other = 0; num_remat = 0 })
  else begin
    let find r =
      List.find_opt (fun p -> Ptx.Reg.equal p.reg r) placements
    in
    let next = ref (Ptx.Kernel.fresh_reg_base k) in
    let fresh ty =
      let r = Ptx.Reg.make !next ty in
      incr next;
      r
    in
    let has_local = List.exists (fun p -> p.space = Ptx.Types.Local) placements in
    let has_shared = List.exists (fun p -> p.space = Ptx.Types.Shared) placements in
    let n_local = ref 0 and n_shared = ref 0 and n_other = ref 0 in
    let n_remat = ref 0 in
    let remat_of r =
      List.find_opt (fun (r', _) -> Ptx.Reg.equal r r') spec.remat
    in
    (* entry setup: materialise base addresses *)
    let base_local = if has_local then Some (fresh Ptx.Types.U64) else None in
    let base_shared = if has_shared then Some (fresh Ptx.Types.U64) else None in
    let setup = ref [] in
    let emit_setup i =
      incr n_other;
      setup := Ptx.Kernel.I i :: !setup
    in
    (match base_local with
     | Some d ->
       emit_setup (Ptx.Instr.Mov (Ptx.Types.U64, d, Ptx.Instr.Osym local_stack_sym))
     | None -> ());
    (match base_shared with
     | Some d ->
       let tid = fresh Ptx.Types.U32 in
       emit_setup (Ptx.Instr.Mov (Ptx.Types.U32, tid, Ptx.Instr.Ospecial Ptx.Reg.Tid_x));
       let off32 = fresh Ptx.Types.U32 in
       emit_setup
         (Ptx.Instr.Binop
            ( Ptx.Instr.Mul_lo, Ptx.Types.U32, off32, Ptx.Instr.Oreg tid
            , Ptx.Instr.Oimm (Int64.of_int spec.shared_bytes_per_thread) ));
       let off64 = fresh Ptx.Types.U64 in
       emit_setup (Ptx.Instr.Cvt (Ptx.Types.U64, Ptx.Types.U32, off64, Ptx.Instr.Oreg off32));
       let base = fresh Ptx.Types.U64 in
       emit_setup (Ptx.Instr.Mov (Ptx.Types.U64, base, Ptx.Instr.Osym shared_stack_sym));
       emit_setup
         (Ptx.Instr.Binop
            (Ptx.Instr.Add, Ptx.Types.U64, d, Ptx.Instr.Oreg base, Ptx.Instr.Oreg off64))
     | None -> ());
    let addr_of p =
      let base =
        match p.space with
        | Ptx.Types.Local -> Option.get base_local
        | Ptx.Types.Shared -> Option.get base_shared
        | Ptx.Types.Reg | Ptx.Types.Global | Ptx.Types.Param | Ptx.Types.Const ->
          invalid_arg "Spill: placement space must be local or shared"
      in
      { Ptx.Instr.base = Ptx.Instr.Oreg base; offset = p.offset }
    in
    let count_access p =
      match p.space with
      | Ptx.Types.Local -> incr n_local
      | Ptx.Types.Shared -> incr n_shared
      | Ptx.Types.Reg | Ptx.Types.Global | Ptx.Types.Param | Ptx.Types.Const -> ()
    in
    let rewrite_instr ins =
      (* a rematerialised register's (unique) defining instruction is
         dropped entirely: its value is recomputed at each use *)
      let defs0 = Ptx.Instr.defs ins in
      if List.exists (fun r -> remat_of r <> None) defs0 then []
      else begin
      let uses = Ptx.Instr.uses ins in
      let remat_uses =
        List.sort_uniq Ptx.Reg.compare
          (List.filter (fun r -> remat_of r <> None) uses)
      in
      let remat_loads, remat_map =
        List.fold_left
          (fun (ls, m) r ->
             let _, op = Option.get (remat_of r) in
             let tmp = fresh (Ptx.Reg.ty r) in
             incr n_remat;
             ( Ptx.Kernel.I (Ptx.Instr.Mov (Ptx.Reg.ty r, tmp, op)) :: ls
             , Ptx.Reg.Map.add r tmp m ))
          ([], Ptx.Reg.Map.empty) remat_uses
      in
      let spilled_uses =
        List.sort_uniq Ptx.Reg.compare (List.filter_map (fun r ->
          match find r with
          | Some _ -> Some r
          | None -> None)
          uses)
      in
      let loads, use_map =
        List.fold_left
          (fun (ls, m) r ->
             let p = Option.get (find r) in
             let tmp = fresh (Ptx.Reg.ty r) in
             count_access p;
             ( Ptx.Kernel.I (Ptx.Instr.Ld (p.space, Ptx.Reg.ty r, tmp, addr_of p)) :: ls
             , Ptx.Reg.Map.add r tmp m ))
          ([], Ptx.Reg.Map.empty) spilled_uses
      in
      let defs = Ptx.Instr.defs ins in
      let stores, def_map =
        List.fold_left
          (fun (ss, m) r ->
             match find r with
             | None -> (ss, m)
             | Some p ->
               let tmp = fresh (Ptx.Reg.ty r) in
               count_access p;
               ( Ptx.Kernel.I
                   (Ptx.Instr.St (p.space, Ptx.Reg.ty r, addr_of p, Ptx.Instr.Oreg tmp))
                 :: ss
               , Ptx.Reg.Map.add r tmp m ))
          ([], Ptx.Reg.Map.empty) defs
      in
      (* rewrite the def position first (it may coincide with a use, e.g. a
         loop induction register), then the remaining use occurrences *)
      let ins' =
        Ptx.Instr.map_def
          (fun r ->
             match Ptx.Reg.Map.find_opt r def_map with
             | Some t -> t
             | None -> r)
          ins
      in
      let ins'' =
        Ptx.Instr.map_regs
          (fun r ->
             match Ptx.Reg.Map.find_opt r use_map with
             | Some t -> t
             | None ->
               (match Ptx.Reg.Map.find_opt r remat_map with
                | Some t -> t
                | None -> r))
          ins'
      in
      List.rev remat_loads @ List.rev loads
      @ [ Ptx.Kernel.I ins'' ]
      @ List.rev stores
      end
    in
    let body =
      Array.to_list k.body
      |> List.concat_map (function
        | Ptx.Kernel.L l -> [ Ptx.Kernel.L l ]
        | Ptx.Kernel.I i -> rewrite_instr i)
    in
    let decls = ref k.decls in
    if has_local then
      decls :=
        !decls
        @ [ { Ptx.Kernel.dname = local_stack_sym
            ; dspace = Ptx.Types.Local
            ; delem = Ptx.Types.B8
            ; dcount = spec.local_bytes
            ; dalign = 8
            } ];
    if has_shared then
      decls :=
        !decls
        @ [ { Ptx.Kernel.dname = shared_stack_sym
            ; dspace = Ptx.Types.Shared
            ; delem = Ptx.Types.B8
            ; dcount = spec.shared_bytes_per_thread * block_size
            ; dalign = 8
            } ];
    let k' =
      { k with
        Ptx.Kernel.decls = !decls
      ; body = Array.of_list (List.rev !setup @ body)
      }
    in
    (match Ptx.Kernel.validate k' with
     | Ok () -> ()
     | Error msg -> invalid_arg ("Spill.apply produced invalid kernel: " ^ msg));
    ( k'
    , { num_local = !n_local
      ; num_shared = !n_shared
      ; num_other = !n_other
      ; num_remat = !n_remat
      } )
  end

let infra_registers orig spilled =
  let o = Ptx.Kernel.registers orig in
  Ptx.Reg.Set.diff (Ptx.Kernel.registers spilled) o
