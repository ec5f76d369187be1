open Ptx
module A = Absint.Analysis
module Dom = Absint.Dom

module RMap = Map.Make (Int)

type slot_key =
  | Lslot of int
  | Sslot of int

module SMap = Map.Make (struct
  type t = slot_key

  let compare = compare
end)

type side =
  { kernel : Kernel.t
  ; flow : Cfg.Flow.t
  ; an : A.t
  ; live : Cfg.Liveness.t
  ; shared_off : (string * int) list
  ; local_off : (string * int) list
  ; param_tag : (string * bool) list
  ; headers : (int * string) list
  ; spill : spill_ctx option
  }

and spill_ctx =
  { local_bytes : int
  ; shared_stride : int
  }

exception Unsupported of string

let reg_key r =
  let cls =
    match Types.reg_class (Reg.ty r) with
    | Types.Cpred -> 0
    | Types.C32 -> 1
    | Types.C64 -> 2
  in
  (cls lsl 24) lor Reg.id r

let decl_extents decls space =
  List.filter_map
    (fun (d : Kernel.decl) ->
      if d.Kernel.dspace = space then
        Some (d.Kernel.dname, Kernel.decl_bytes d)
      else None)
    decls

let make_side ?block_size ?num_blocks (k : Kernel.t) =
  let flow = Cfg.Flow.of_kernel k in
  let an = A.run ?block_size ?num_blocks flow in
  let live = Cfg.Liveness.compute flow in
  let shared_off, _ = Gpusim.Image.layout_decls k.Kernel.decls Types.Shared in
  let local_off, _ = Gpusim.Image.layout_decls k.Kernel.decls Types.Local in
  let headers =
    Cfg.Loops.back_edges flow
    |> List.map (fun (_, v) -> flow.Cfg.Flow.blocks.(v).Cfg.Flow.first)
    |> List.sort_uniq compare
    |> List.map (fun idx ->
         match
           List.find_opt (fun (_, i) -> i = idx) flow.Cfg.Flow.label_index
         with
         | Some (l, _) -> (idx, l)
         | None -> raise (Unsupported "unlabelled loop header"))
  in
  let local_bytes =
    match List.assoc_opt Regalloc.Spill.local_stack_sym
            (decl_extents k.Kernel.decls Types.Local)
    with
    | Some b -> b
    | None -> 0
  in
  let shared_stride = Option.value ~default:0 (A.spill_stride an) in
  let spill =
    if local_bytes > 0 || shared_stride > 0 then
      Some { local_bytes; shared_stride }
    else None
  in
  { kernel = k
  ; flow
  ; an
  ; live
  ; shared_off
  ; local_off
  ; param_tag =
      List.map (fun (p, ty) -> (p, Types.is_float ty)) k.Kernel.params
  ; headers
  ; spill
  }

type state =
  { regs : Term.t RMap.t
  ; slots : Term.t SMap.t
  ; lhazy : bool
  ; shazy : bool
  ; pc : int
  }

let entry_state =
  { regs = RMap.empty; slots = SMap.empty; lhazy = false; shazy = false; pc = 0 }

type store_ev =
  { sspace : Types.space
  ; sty : Types.scalar
  ; saddr : Term.t
  ; saff : Dom.aff
  ; ssing : int option
  ; svalue : Term.t
  ; vaff : Dom.aff
  ; vsing : int option
  ; may_alias_spill : bool
  }

type branch_ev =
  { cond : Term.t
  ; cond_sing : int option
  ; sense : bool
  ; label : string
  ; target_pc : int
  ; fall_pc : int
  ; decided : bool option
  }

type event =
  | Ev_store of store_ev
  | Ev_barrier
  | Ev_branch of branch_ev
  | Ev_cut of string
  | Ev_ret
  | Ev_stuck of string

exception Stuck_exc of string

let stuck fmt = Format.kasprintf (fun m -> raise (Stuck_exc m)) fmt

(* Read a register's term, preferring an interval-singleton fact from the
   abstract interpretation: for non-float registers the stored pattern
   equals the [to_int64] value, so a proven singleton pins the pattern
   exactly (this is what makes [Intfold]'s rewrites provable). *)
let eval_reg side (regs : Term.t RMap.t) i r =
  let t =
    match RMap.find_opt (reg_key r) regs with
    | Some t -> t
    | None -> Term.cst 0L (* registers zero-initialise *)
  in
  if Types.is_float (Reg.ty r) then t
  else
    match t with
    | Term.Cst _ -> t
    | _ -> (
      match Dom.Itv.singleton (A.value_at side.an i r).Dom.itv with
      | Some c -> Term.cst_int c
      | None -> t)

let eval_special side = function
  | Reg.Tid_y | Reg.Ctaid_y -> Term.cst 0L
  | Reg.Ntid_y | Reg.Nctaid_y -> Term.cst 1L
  | Reg.Ntid_x -> Term.cst_int (A.block_size side.an)
  | Reg.Nctaid_x as s -> (
    match A.num_blocks side.an with
    | Some n -> Term.cst_int n
    | None -> Term.Special s)
  | s -> Term.Special s

let eval_operand side regs i = function
  | Instr.Oreg r -> eval_reg side regs i r
  | Instr.Oimm x -> Term.cst x
  | Instr.Ofimm f -> Term.fcst f
  | Instr.Ospecial s -> eval_special side s
  | Instr.Osym s -> (
    match List.assoc_opt s side.shared_off with
    | Some off -> Term.cst_int off
    | None -> (
      match List.assoc_opt s side.local_off with
      | Some _ -> Term.SymLocal s
      | None -> stuck "unknown symbol %s" s))
  | Instr.Oparam p -> (
    match List.assoc_opt p side.param_tag with
    | Some f -> Term.ParamV (p, f)
    | None -> stuck "unknown parameter %s" p)

(* The address actually dereferenced: [to_int64 base + offset]. *)
let addr_term side regs i (a : Instr.address) =
  let base = eval_operand side regs i a.Instr.base in
  match Term.to_i64 base with
  | Some b -> Term.mk_bin Instr.Add Types.U64 b (Term.cst_int a.Instr.offset)
  | None -> stuck "float-valued address base"

(* Affine view of an address, degraded when the form's base symbol is
   meaningless for the space (a declared-array base inside a Global
   address would compare naive per-side addresses that legitimately
   differ once decls change). *)
let addr_dom side i (a : Instr.address) space =
  let v = A.address_at side.an i a in
  let aff = v.Dom.aff in
  let aff =
    match (space, aff.Dom.sym) with
    | (Types.Global | Types.Const), Some (Dom.Sym _) -> Dom.aff_opaque
    | _ -> aff
  in
  (aff, Dom.Itv.singleton v.Dom.itv)

let slot_of side i (a : Instr.address) ty space =
  match side.spill with
  | None -> None
  | Some sp -> (
    let f = (A.address_at side.an i a).Dom.aff in
    let w = Types.width_bytes ty in
    match (space, Dom.decl_sym f) with
    | Types.Local, Some s
      when String.equal s Regalloc.Spill.local_stack_sym
           && f.Dom.tid = 0 && f.Dom.cta = 0 && f.Dom.base >= 0
           && f.Dom.base + w <= sp.local_bytes ->
      Some (Lslot f.Dom.base)
    | Types.Shared, Some s
      when String.equal s Regalloc.Spill.shared_stack_sym
           && f.Dom.tid = sp.shared_stride && f.Dom.cta = 0
           && f.Dom.base >= 0 && f.Dom.base + w <= sp.shared_stride ->
      Some (Sslot f.Dom.base)
    | _ -> None)

(* May an (unrecognised) store into this space clobber the spill stack?
   Safe only when it provably stays inside the extent of some other
   declared array. *)
let store_alias_risk side i (a : Instr.address) w space =
  match side.spill with
  | None -> false
  | Some sp ->
    let relevant, stack_sym, extents =
      match space with
      | Types.Local ->
        ( sp.local_bytes > 0
        , Regalloc.Spill.local_stack_sym
        , decl_extents side.kernel.Kernel.decls Types.Local )
      | Types.Shared ->
        ( sp.shared_stride > 0
        , Regalloc.Spill.shared_stack_sym
        , decl_extents side.kernel.Kernel.decls Types.Shared )
      | _ -> (false, "", [])
    in
    if not relevant then false
    else
      let f = (A.address_at side.an i a).Dom.aff in
      (match Dom.decl_sym f with
       | Some s when not (String.equal s stack_sym) -> (
         match List.assoc_opt s extents with
         | Some e -> not (f.Dom.base >= 0 && f.Dom.base + w <= e)
         | None -> true)
       | _ -> true)

let lspace_of = function
  | Types.Global | Types.Const -> Term.LGlobal
  | Types.Shared -> Term.LShared
  | Types.Local -> Term.LLocal
  | _ -> stuck "load from unsupported space"

(* Pattern a memory read of [ty] yields, given the stored term: the
   interpreter truncates with the stored tag only for predicate loads;
   float loads are tag-insensitive; an integer load of a float-tagged
   slot is the one combination we cannot express. *)
let mem_read_trunc ty t =
  if (not (Term.tag t)) || Types.is_float ty || ty = Types.Pred then
    Term.mk_trunc ty t
  else stuck "integer reload of a float-tagged slot"

let advance side ~version ~fuel ~fresh ~first (st : state) =
  let regs = ref st.regs
  and slots = ref st.slots
  and lhazy = ref st.lhazy
  and shazy = ref st.shazy
  and pc = ref st.pc in
  let state_at p =
    { regs = !regs; slots = !slots; lhazy = !lhazy; shazy = !shazy; pc = p }
  in
  let n = Cfg.Flow.num_instrs side.flow in
  let write d t = regs := RMap.add (reg_key d) (Term.mk_trunc (Reg.ty d) t) !regs in
  let slot_read key hazy =
    match SMap.find_opt key !slots with
    | Some t -> t
    | None ->
      let t =
        (* clobbered region: unknown but fixed until the next hazard *)
        if hazy then fresh Types.B64
        else Term.cst 0L
      in
      slots := SMap.add key t !slots;
      t
  in
  try
    let rec step started =
      if !pc >= n then (state_at !pc, Ev_ret)
      else if (not (first && not started)) && List.mem_assoc !pc side.headers
      then (state_at !pc, Ev_cut (List.assoc !pc side.headers))
      else begin
        decr fuel;
        if !fuel <= 0 then (state_at !pc, Ev_stuck "step budget exhausted")
        else begin
          let i = !pc in
          let ev = eval_operand side !regs i in
          match side.flow.Cfg.Flow.instrs.(i) with
          | Instr.Mov (ty, d, a) ->
            write d (Term.mk_trunc ty (ev a));
            incr pc;
            step true
          | Instr.Binop (op, ty, d, a, b) ->
            write d (Term.mk_bin op ty (ev a) (ev b));
            incr pc;
            step true
          | Instr.Mad (ty, d, a, b, c) ->
            write d (Term.mk_mad ty (ev a) (ev b) (ev c));
            incr pc;
            step true
          | Instr.Unop (op, ty, d, a) ->
            write d (Term.mk_un op ty (ev a));
            incr pc;
            step true
          | Instr.Cvt (dst, src, d, a) ->
            write d (Term.mk_cvt ~dst ~src (ev a));
            incr pc;
            step true
          | Instr.Setp (c, ty, d, a, b) ->
            write d (Term.mk_cmp c ty (ev a) (ev b));
            incr pc;
            step true
          | Instr.Selp (ty, d, a, b, p) ->
            write d (Term.mk_sel ty (eval_reg side !regs i p) (ev a) (ev b));
            incr pc;
            step true
          | Instr.Ld (Types.Param, ty, d, a) -> (
            match a.Instr.base with
            | Instr.Oparam _ ->
              write d (Term.mk_trunc ty (ev a.Instr.base));
              incr pc;
              step true
            | _ -> stuck "ld.param with a non-parameter base")
          | Instr.Ld (space, ty, d, a) -> (
            match slot_of side i a ty space with
            | Some key ->
              let hazy =
                match key with
                | Lslot _ -> !lhazy
                | Sslot _ -> !shazy
              in
              write d (mem_read_trunc ty (slot_read key hazy));
              incr pc;
              step true
            | None ->
              let addr = addr_term side !regs i a
              and laff, lsing = addr_dom side i a space in
              write d
                (Term.Load
                   { lsp = lspace_of space
                   ; lty = ty
                   ; ver = version
                   ; addr
                   ; laff
                   ; lsing
                   });
              incr pc;
              step true)
          | Instr.St (space, ty, a, v) -> (
            let value = Term.mk_trunc ty (ev v) in
            match slot_of side i a ty space with
            | Some key ->
              slots := SMap.add key value !slots;
              incr pc;
              step true
            | None ->
              let saddr = addr_term side !regs i a
              and saff, ssing = addr_dom side i a space in
              let vv = A.operand_at side.an i v in
              let risk =
                store_alias_risk side i a (Types.width_bytes ty) space
              in
              if risk then begin
                match space with
                | Types.Local -> lhazy := true
                | Types.Shared -> shazy := true
                | _ -> ()
              end;
              incr pc;
              ( state_at !pc
              , Ev_store
                  { sspace = space
                  ; sty = ty
                  ; saddr
                  ; saff
                  ; ssing
                  ; svalue = value
                  ; vaff = vv.Dom.aff
                  ; vsing = Dom.Itv.singleton vv.Dom.itv
                  ; may_alias_spill = risk
                  } ))
          | Instr.Bra l ->
            pc := Cfg.Flow.target_index side.flow l;
            step true
          | Instr.Bra_pred (p, sense, l) ->
            let cond = eval_reg side !regs i p in
            let cv = A.value_at side.an i p in
            ( state_at !pc
            , Ev_branch
                { cond
                ; cond_sing = Dom.Itv.singleton cv.Dom.itv
                ; sense
                ; label = l
                ; target_pc = Cfg.Flow.target_index side.flow l
                ; fall_pc = !pc + 1
                ; decided = Term.decided cond
                } )
          | Instr.Bar_sync ->
            incr pc;
            (state_at !pc, Ev_barrier)
          | Instr.Ret -> (state_at !pc, Ev_ret)
        end
      end
    in
    step false
  with
  | Stuck_exc m -> (state_at !pc, Ev_stuck m)
  | Invalid_argument m -> (state_at !pc, Ev_stuck m)
  | Not_found -> (state_at !pc, Ev_stuck "unresolved label")

let slot_key_of (p : Regalloc.Spill.placement) =
  match p.Regalloc.Spill.space with
  | Types.Shared -> Sslot p.Regalloc.Spill.offset
  | _ -> Lslot p.Regalloc.Spill.offset

let havoc_slots fresh placements =
  List.fold_left
    (fun m (p : Regalloc.Spill.placement) ->
      let key = slot_key_of p in
      SMap.add key (fresh key) m)
    SMap.empty placements
