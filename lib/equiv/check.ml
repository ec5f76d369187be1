open Ptx
module Dom = Absint.Dom
module A = Absint.Analysis

type verdict =
  | Proved
  | Refuted of Witness.t
  | Unknown of string

type outcome =
  { edge : string
  ; kernel : string
  ; verdict : verdict
  ; cuts : int
  ; paths : int
  ; obligations : int
  ; detail : string
  }

exception Mismatch of string
exception Give_up of string

let mismatch fmt = Format.kasprintf (fun m -> raise (Mismatch m)) fmt
let give_up fmt = Format.kasprintf (fun m -> raise (Give_up m)) fmt

(* ------------------------------------------------------------------ *)
(* Correspondence of a left register at a cutpoint                    *)

type corr =
  | Same
  | Alloc of Regalloc.Allocator.t

type loc =
  | In_reg of Reg.t
  | In_slot of Sym.slot_key
  | Unconstrained

let locate corr v =
  match corr with
  | Same -> In_reg v
  | Alloc a -> (
    match
      List.find_opt
        (fun (p : Regalloc.Spill.placement) ->
          Reg.equal p.Regalloc.Spill.reg v)
        a.Regalloc.Allocator.spilled
    with
    | Some pl -> In_slot (Sym.slot_key_of pl)
    | None -> (
      match Reg.Map.find_opt v a.Regalloc.Allocator.assignment with
      | Some p -> In_reg p
      | None -> Unconstrained))

(* ------------------------------------------------------------------ *)
(* Driver context                                                     *)

type ctx =
  { l : Sym.side
  ; r : Sym.side
  ; corr : corr
  ; var_ctr : int ref
  ; seeds : (string * int64 list) list ref
  ; cuts : int ref
  ; paths : int ref
  ; obligations : int ref
  ; max_paths : int
  ; max_fuel : int
  ; pinned : Term.t Reg.Map.t
        (** left registers bound to one term at every cutpoint *)
  }

let fresh ctx ty =
  incr ctx.var_ctr;
  Term.Var (!(ctx.var_ctr), ty)

(* Equality of two side's denotations: structural term equality, or a
   shared interval singleton, or matching exact affine forms. Affine
   forms whose base is a declared-array symbol denote per-side naive
   addresses; they are trusted for addresses of the matching space
   (where the relative reading is the semantics) but not for stored
   values. *)
let value_aff_usable (a : Dom.aff) =
  match a.Dom.sym with
  | Some (Dom.Sym _) -> false
  | _ -> true

let eq_terms ?(addr = false) ctx (t1, (a1 : Dom.aff), s1) (t2, a2, s2) =
  incr ctx.obligations;
  Term.equal t1 t2
  || (match (s1, s2) with
     | Some c1, Some c2 ->
       c1 = c2 && (not (Term.tag t1)) && not (Term.tag t2)
     | _ -> false)
  || (a1.Dom.exact && a2.Dom.exact && Dom.aff_equal a1 a2
     && (addr || (value_aff_usable a1 && value_aff_usable a2))
     && (not (Term.tag t1))
     && not (Term.tag t2))

let term_of_regs regs r =
  match Sym.RMap.find_opt (Sym.reg_key r) regs with
  | Some t -> t
  | None -> Term.cst 0L

let reg_dom side i r =
  let v = A.value_at side.Sym.an i r in
  let aff =
    if Types.is_float (Reg.ty r) then Dom.aff_opaque else v.Dom.aff
  in
  let sing =
    if Types.is_float (Reg.ty r) then None else Dom.Itv.singleton v.Dom.itv
  in
  (aff, sing)

(* ------------------------------------------------------------------ *)
(* Path-constraint seeds for the fuzzing fallback                     *)

let rec param_root = function
  | Term.ParamV (p, _) -> Some p
  | Term.Trunc (_, t) | Term.CvtT (_, _, t) | Term.Un (_, _, t) ->
    param_root t
  | Term.Bin (_, _, t, Term.Cst _) | Term.Bin (_, _, Term.Cst _, t) ->
    param_root t
  | _ -> None

let record_seed ctx cond =
  match cond with
  | Term.CmpT (_, _, x, Term.Cst (c, false))
  | Term.CmpT (_, _, Term.Cst (c, false), x) -> (
    match param_root x with
    | Some p ->
      let prev =
        match List.assoc_opt p !(ctx.seeds) with
        | Some s -> s
        | None -> []
      in
      ctx.seeds :=
        (p, [ Int64.pred c; c; Int64.succ c ] @ prev)
        :: List.remove_assoc p !(ctx.seeds)
    | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Cutpoint states                                                    *)

let header_pc side lbl =
  try Cfg.Flow.target_index side.Sym.flow lbl
  with Not_found -> mismatch "loop header %s missing on one side" lbl

(* Havoc value for a left register: pin to an interval singleton when
   either side's analysis proves one at the header (the arrival checks
   justify propagating it to the other side), otherwise a fresh
   variable shared by both sides of the correspondence. *)
let havoc_value ctx i_l v alt =
  if Types.is_float (Reg.ty v) then fresh ctx (Reg.ty v)
  else
    match Dom.Itv.singleton (A.value_at ctx.l.Sym.an i_l v).Dom.itv with
    | Some c -> Term.cst_int c
    | None -> (
      match alt with
      | Some c -> Term.cst_int c
      | None -> fresh ctx (Reg.ty v))

let cut_states ctx lbl =
  let i_l = header_pc ctx.l lbl and i_r = header_pc ctx.r lbl in
  let ll = ctx.l.Sym.live.Cfg.Liveness.live_in.(i_l)
  and lr = ctx.r.Sym.live.Cfg.Liveness.live_in.(i_r) in
  let lregs = ref Sym.RMap.empty
  and rregs = ref Sym.RMap.empty
  and slots = ref Sym.SMap.empty in
  let bind regs r t =
    let key = Sym.reg_key r in
    (match Sym.RMap.find_opt key !regs with
     | Some t' when not (Term.equal t' t) ->
       give_up "register-class aliasing at cutpoint %s" lbl
     | _ -> ());
    regs := Sym.RMap.add key t !regs
  in
  (match ctx.corr with
   | Alloc a ->
     (* every recorded slot starts unknown; corresponded ones below *)
     slots :=
       Sym.havoc_slots
         (fun _ -> fresh ctx Types.B64)
         a.Regalloc.Allocator.spilled
   | Same -> ());
  Reg.Set.iter
    (fun v ->
      match locate ctx.corr v with
      | In_reg p ->
        let shared =
          match ctx.corr with
          | Same -> Reg.Set.mem p lr
          | Alloc _ -> true
        in
        if shared then begin
          let alt =
            if Types.is_float (Reg.ty p) then None
            else Dom.Itv.singleton (A.value_at ctx.r.Sym.an i_r p).Dom.itv
          in
          let t = havoc_value ctx i_l v alt in
          bind lregs v t;
          bind rregs p t
        end
        else bind lregs v (havoc_value ctx i_l v None)
      | In_slot key ->
        let t = havoc_value ctx i_l v None in
        bind lregs v t;
        slots := Sym.SMap.add key t !slots
      | Unconstrained ->
        bind lregs v
          (match Reg.Map.find_opt v ctx.pinned with
           | Some t -> t
           | None -> havoc_value ctx i_l v None))
    ll;
  (* right-side registers live at the header but not produced by the
     correspondence (spill infrastructure, reload temps, dce'd copies) *)
  Reg.Set.iter
    (fun p ->
      if not (Sym.RMap.mem (Sym.reg_key p) !rregs) then
        bind rregs p
          (match
             if Types.is_float (Reg.ty p) then None
             else Dom.Itv.singleton (A.value_at ctx.r.Sym.an i_r p).Dom.itv
           with
          | Some c -> Term.cst_int c
          | None -> fresh ctx (Reg.ty p)))
    lr;
  ( { Sym.regs = !lregs
    ; slots = Sym.SMap.empty
    ; lhazy = true
    ; shazy = true
    ; pc = i_l
    }
  , { Sym.regs = !rregs
    ; slots = !slots
    ; lhazy = true
    ; shazy = true
    ; pc = i_r
    } )

let check_arrival ctx lbl (sl : Sym.state) (sr : Sym.state) =
  let i_l = header_pc ctx.l lbl and i_r = header_pc ctx.r lbl in
  let ll = ctx.l.Sym.live.Cfg.Liveness.live_in.(i_l)
  and lr = ctx.r.Sym.live.Cfg.Liveness.live_in.(i_r) in
  Reg.Set.iter
    (fun v ->
      let lt = term_of_regs sl.Sym.regs v in
      let laff, lsing = reg_dom ctx.l i_l v in
      match locate ctx.corr v with
      | In_reg p ->
        let relevant =
          match ctx.corr with
          | Same -> Reg.Set.mem p lr
          | Alloc _ -> true
        in
        if relevant then begin
          let rt = term_of_regs sr.Sym.regs p in
          let raff, rsing = reg_dom ctx.r i_r p in
          if not (eq_terms ctx (lt, laff, lsing) (rt, raff, rsing)) then
            mismatch "cutpoint %s: %s (left %s) vs %s (right %s)" lbl
              (Reg.name v) (Term.to_string lt) (Reg.name p)
              (Term.to_string rt)
        end
      | In_slot key -> (
        match Sym.SMap.find_opt key sr.Sym.slots with
        | Some st ->
          if
            not
              (eq_terms ctx (lt, laff, lsing) (st, Dom.aff_opaque, None))
          then
            mismatch "cutpoint %s: spilled %s (left %s) vs slot (%s)" lbl
              (Reg.name v) (Term.to_string lt) (Term.to_string st)
        | None ->
          let hazy =
            match key with
            | Sym.Lslot _ -> sr.Sym.lhazy
            | Sym.Sslot _ -> sr.Sym.shazy
          in
          if hazy then mismatch "cutpoint %s: spill slot state unknown" lbl
          else if
            not
              (eq_terms ctx (lt, laff, lsing)
                 (Term.cst 0L, Dom.aff_opaque, None))
          then
            mismatch "cutpoint %s: spilled %s vs untouched slot" lbl
              (Reg.name v))
      | Unconstrained -> (
        match Reg.Map.find_opt v ctx.pinned with
        | Some t ->
          if not (eq_terms ctx (lt, laff, lsing) (t, Dom.aff_opaque, None))
          then
            mismatch "cutpoint %s: %s (left %s) vs its only move (%s)" lbl
              (Reg.name v) (Term.to_string lt) (Term.to_string t)
        | None -> ()))
    ll

(* ------------------------------------------------------------------ *)
(* Lockstep co-execution of one cutpoint's segment                    *)

type path =
  { sl : Sym.state
  ; sr : Sym.state
  ; first_l : bool
  ; first_r : bool
  ; version : int
  }

let match_store ctx (a : Sym.store_ev) (b : Sym.store_ev) =
  if a.Sym.sspace <> b.Sym.sspace then
    mismatch "store space %s vs %s"
      (Types.space_to_string a.Sym.sspace)
      (Types.space_to_string b.Sym.sspace);
  if not (Types.equal_scalar a.Sym.sty b.Sym.sty) then
    mismatch "store width %s vs %s"
      (Types.scalar_to_string a.Sym.sty)
      (Types.scalar_to_string b.Sym.sty);
  if
    not
      (eq_terms ~addr:true ctx
         (a.Sym.saddr, a.Sym.saff, a.Sym.ssing)
         (b.Sym.saddr, b.Sym.saff, b.Sym.ssing))
  then
    mismatch "store address %s vs %s"
      (Term.to_string a.Sym.saddr)
      (Term.to_string b.Sym.saddr);
  if
    not
      (eq_terms ctx
         (a.Sym.svalue, a.Sym.vaff, a.Sym.vsing)
         (b.Sym.svalue, b.Sym.vaff, b.Sym.vsing))
  then
    mismatch "store value %s vs %s"
      (Term.to_string a.Sym.svalue)
      (Term.to_string b.Sym.svalue)

let decided_of (b : Sym.branch_ev) =
  match b.Sym.decided with
  | Some d -> Some d
  | None -> (
    match b.Sym.cond_sing with
    | Some c -> Some (c <> 0)
    | None -> None)

let run_cut ctx (cut : string option) ~enqueue =
  incr ctx.cuts;
  let sl0, sr0 =
    match cut with
    | None -> (Sym.entry_state, Sym.entry_state)
    | Some lbl -> cut_states ctx lbl
  in
  let stack =
    ref [ { sl = sl0; sr = sr0; first_l = true; first_r = true; version = 0 } ]
  in
  while !stack <> [] do
    let p = List.hd !stack in
    stack := List.tl !stack;
    incr ctx.paths;
    if !(ctx.paths) > ctx.max_paths then give_up "path budget exhausted";
    let fuel_l = ref ctx.max_fuel and fuel_r = ref ctx.max_fuel in
    let continue_ = ref (Some p) in
    while !continue_ <> None do
      let p = Option.get !continue_ in
      let sl, evl =
        Sym.advance ctx.l ~version:p.version ~fuel:fuel_l
          ~fresh:(fresh ctx) ~first:p.first_l p.sl
      and sr, evr =
        Sym.advance ctx.r ~version:p.version ~fuel:fuel_r
          ~fresh:(fresh ctx) ~first:p.first_r p.sr
      in
      let p = { p with sl; sr; first_l = false; first_r = false } in
      match (evl, evr) with
      | Sym.Ev_stuck m, _ | _, Sym.Ev_stuck m -> give_up "%s" m
      | Sym.Ev_ret, Sym.Ev_ret -> continue_ := None
      | Sym.Ev_barrier, Sym.Ev_barrier ->
        continue_ := Some { p with version = p.version + 1 }
      | Sym.Ev_store a, Sym.Ev_store b ->
        match_store ctx a b;
        continue_ := Some { p with version = p.version + 1 }
      | Sym.Ev_cut la, Sym.Ev_cut lb ->
        if not (String.equal la lb) then
          mismatch "cutpoint order: %s vs %s" la lb;
        check_arrival ctx la sl sr;
        enqueue la;
        continue_ := None
      | Sym.Ev_branch a, Sym.Ev_branch b -> (
        if not (String.equal a.Sym.label b.Sym.label) then
          mismatch "branch target %s vs %s" a.Sym.label b.Sym.label;
        if a.Sym.sense <> b.Sym.sense then mismatch "branch sense differs";
        let follow p (d : bool) =
          let taken_l = d = a.Sym.sense and taken_r = d = b.Sym.sense in
          { p with
            sl =
              { p.sl with
                Sym.pc = (if taken_l then a.Sym.target_pc else a.Sym.fall_pc)
              }
          ; sr =
              { p.sr with
                Sym.pc = (if taken_r then b.Sym.target_pc else b.Sym.fall_pc)
              }
          }
        in
        let conds_eq () =
          eq_terms ctx
            (a.Sym.cond, Dom.aff_opaque, a.Sym.cond_sing)
            (b.Sym.cond, Dom.aff_opaque, b.Sym.cond_sing)
        in
        match (decided_of a, decided_of b) with
        | Some x, Some y ->
          if x <> y then
            mismatch "branch at %s decided differently" a.Sym.label;
          continue_ := Some (follow p x)
        | Some x, None | None, Some x ->
          if not (conds_eq ()) then
            mismatch "branch condition %s vs %s"
              (Term.to_string a.Sym.cond)
              (Term.to_string b.Sym.cond);
          continue_ := Some (follow p x)
        | None, None ->
          if not (conds_eq ()) then
            mismatch "branch condition %s vs %s"
              (Term.to_string a.Sym.cond)
              (Term.to_string b.Sym.cond);
          record_seed ctx a.Sym.cond;
          stack := follow p true :: !stack;
          continue_ := Some (follow p false))
      | _ ->
        let kind = function
          | Sym.Ev_store _ -> "store"
          | Sym.Ev_barrier -> "barrier"
          | Sym.Ev_branch _ -> "branch"
          | Sym.Ev_cut l -> "cutpoint " ^ l
          | Sym.Ev_ret -> "return"
          | Sym.Ev_stuck _ -> "stuck"
        in
        mismatch "event mismatch: left %s vs right %s" (kind evl) (kind evr)
    done
  done

let co_run ctx =
  let processed = Hashtbl.create 8 in
  let queue = Queue.create () in
  let enqueue lbl =
    if not (Hashtbl.mem processed lbl) then begin
      Hashtbl.add processed lbl ();
      Queue.add (Some lbl) queue
    end
  in
  Queue.add None queue;
  while not (Queue.is_empty queue) do
    run_cut ctx (Queue.pop queue) ~enqueue
  done

(* ------------------------------------------------------------------ *)
(* Edge entry points                                                  *)

(* A register whose only definition moves an immediate or a special
   register into it holds that operand's value wherever it is defined.
   The allocator rematerialises such registers instead of giving them a
   home, so under [Alloc] they are pinned to the operand's term at every
   cutpoint; [check_arrival] checks the pin on every arrival, which also
   covers a path that reaches the header before the move. *)
let single_moves side =
  let defs = Hashtbl.create 64 and moves = ref Reg.Map.empty in
  Cfg.Flow.iter_instrs side.Sym.flow (fun _ ins ->
    List.iter
      (fun d ->
        let key = Sym.reg_key d in
        Hashtbl.replace defs key
          (1 + Option.value ~default:0 (Hashtbl.find_opt defs key)))
      (Instr.defs ins);
    let pin d ty t =
      moves := Reg.Map.add d (Term.mk_trunc (Reg.ty d) (Term.mk_trunc ty t)) !moves
    in
    match ins with
    | Instr.Mov (ty, d, Instr.Oimm x) -> pin d ty (Term.cst x)
    | Instr.Mov (ty, d, Instr.Ofimm f) -> pin d ty (Term.fcst f)
    | Instr.Mov (ty, d, Instr.Ospecial sp) -> pin d ty (Sym.eval_special side sp)
    | _ -> ());
  Reg.Map.filter (fun d _ -> Hashtbl.find defs (Sym.reg_key d) = 1) !moves

let make_ctx l r corr =
  { l
  ; r
  ; corr
  ; var_ctr = ref 0
  ; seeds = ref []
  ; cuts = ref 0
  ; paths = ref 0
  ; obligations = ref 0
  ; max_paths = 4096
  ; max_fuel = 200_000
  ; pinned =
      (match corr with
       | Same -> Reg.Map.empty
       | Alloc _ -> single_moves l)
  }

let finish ~edge ~kernel ~block_size ~num_blocks ~left ~right ctx result =
  let outcome verdict detail =
    { edge
    ; kernel
    ; verdict
    ; cuts = !(ctx.cuts)
    ; paths = !(ctx.paths)
    ; obligations = !(ctx.obligations)
    ; detail
    }
  in
  match result with
  | Ok () -> outcome Proved ""
  | Error detail -> (
    let params_ty =
      (Witness.kernel_of left).Kernel.params
    in
    match
      Witness.search ~left ~right ~block_size ~num_blocks ~params_ty
        ~seeds:!(ctx.seeds) ()
    with
    | Some w -> outcome (Refuted w) detail
    | None -> outcome (Unknown detail) detail)

let attempt ctx =
  match co_run ctx with
  | () -> Ok ()
  | exception Mismatch m -> Error m
  | exception Give_up m -> Error m
  | exception Sym.Unsupported m -> Error m

let check_opt ~block_size ?num_blocks ~left ~right () =
  let kernel = left.Kernel.name in
  match
    ( Sym.make_side ~block_size ?num_blocks left
    , Sym.make_side ~block_size ?num_blocks right )
  with
  | l, r ->
    let ctx = make_ctx l r Same in
    finish ~edge:"opt" ~kernel ~block_size
      ~num_blocks:(Option.value num_blocks ~default:1)
      ~left:(Witness.Run_kernel left) ~right:(Witness.Run_kernel right) ctx
      (attempt ctx)
  | exception Sym.Unsupported m ->
    { edge = "opt"
    ; kernel
    ; verdict = Unknown m
    ; cuts = 0
    ; paths = 0
    ; obligations = 0
    ; detail = m
    }

let check_alloc (a : Regalloc.Allocator.t) =
  let block_size = a.Regalloc.Allocator.block_size in
  let left_k = a.Regalloc.Allocator.original
  and right_k = a.Regalloc.Allocator.kernel in
  let kernel = left_k.Kernel.name in
  match
    (Sym.make_side ~block_size left_k, Sym.make_side ~block_size right_k)
  with
  | l, r ->
    let ctx = make_ctx l r (Alloc a) in
    finish ~edge:"alloc" ~kernel ~block_size ~num_blocks:1
      ~left:(Witness.Run_kernel left_k) ~right:(Witness.Run_kernel right_k)
      ctx (attempt ctx)
  | exception Sym.Unsupported m ->
    { edge = "alloc"
    ; kernel
    ; verdict = Unknown m
    ; cuts = 0
    ; paths = 0
    ; obligations = 0
    ; detail = m
    }

(* ------------------------------------------------------------------ *)
(* Lowering edge: per-pc comparison through the machine register map  *)

let special_term ~block_size = function
  | Reg.Tid_y | Reg.Ctaid_y -> Term.cst 0L
  | Reg.Ntid_y | Reg.Nctaid_y -> Term.cst 1L
  | Reg.Ntid_x -> Term.cst_int block_size
  | s -> Term.Special s

type action =
  | Adef of int * Term.t  (** storage key, reg-truncated value *)
  | Ast of Types.space * Types.scalar * Term.t * Term.t
  | Abra of int
  | Abrp of int * bool * int  (** cond storage key, sense, target pc *)
  | Abar
  | Aret

let action_eq a b =
  match (a, b) with
  | Adef (k1, t1), Adef (k2, t2) -> k1 = k2 && Term.equal t1 t2
  | Ast (sp1, ty1, a1, v1), Ast (sp2, ty2, a2, v2) ->
    sp1 = sp2 && Types.equal_scalar ty1 ty2 && Term.equal a1 a2
    && Term.equal v1 v2
  | Abra t1, Abra t2 -> t1 = t2
  | Abrp (k1, s1, t1), Abrp (k2, s2, t2) -> k1 = k2 && s1 = s2 && t1 = t2
  | Abar, Abar -> true
  | Aret, Aret -> true
  | _ -> false

let check_lower (m : Machine.Lower.t) =
  let a = m.Machine.Lower.alloc in
  let image = m.Machine.Lower.image in
  let k = image.Gpusim.Image.kernel in
  let flow = image.Gpusim.Image.flow in
  let block_size = a.Regalloc.Allocator.block_size in
  let outcome0 verdict detail =
    { edge = "lower"
    ; kernel = k.Kernel.name
    ; verdict
    ; cuts = 0
    ; paths = 0
    ; obligations = Array.length m.Machine.Lower.code
    ; detail
    }
  in
  let n64v, n64s = Machine.Lower.count64 a in
  let var_ctr = ref 0 in
  let vars = Hashtbl.create 64 in
  let var_of r =
    let key = Sym.reg_key r in
    match Hashtbl.find_opt vars key with
    | Some t -> t
    | None ->
      incr var_ctr;
      let t = Term.Var (!var_ctr, Reg.ty r) in
      Hashtbl.add vars key t;
      t
  in
  let inv = Hashtbl.create 64 in
  Cfg.Flow.iter_instrs flow (fun _ ins ->
    List.iter
      (fun r ->
        Hashtbl.replace inv
          (Machine.Lower.map_reg a ~n64v ~n64s r)
          r)
      (Instr.defs ins @ Instr.uses ins));
  let param_tag p =
    match List.assoc_opt p k.Kernel.params with
    | Some ty -> Types.is_float ty
    | None -> mismatch "unknown parameter %s" p
  in
  let shared_off, _ = Gpusim.Image.layout_decls k.Kernel.decls Types.Shared in
  let ptx_src = function
    | Instr.Oreg r -> var_of r
    | Instr.Oimm x -> Term.cst x
    | Instr.Ofimm f -> Term.fcst f
    | Instr.Ospecial s -> special_term ~block_size s
    | Instr.Osym s -> (
      match List.assoc_opt s shared_off with
      | Some off -> Term.cst_int off
      | None -> (
        match
          List.assoc_opt s image.Gpusim.Image.local_offsets
        with
        | Some _ -> Term.SymLocal s
        | None -> mismatch "unknown symbol %s" s))
    | Instr.Oparam p -> Term.ParamV (p, param_tag p)
  in
  let mach_src = function
    | Machine.Isa.Rsrc mr -> (
      match Hashtbl.find_opt inv mr with
      | Some r -> var_of r
      | None -> mismatch "machine register outside the allocation map")
    | Machine.Isa.Imm x -> Term.cst x
    | Machine.Isa.Fimm f -> Term.fcst f
    | Machine.Isa.Spec s -> special_term ~block_size s
    | Machine.Isa.Param idx -> (
      let p = m.Machine.Lower.params.(idx) in
      Term.ParamV (p, param_tag p))
    | Machine.Isa.Loc off -> (
      match
        List.find_opt
          (fun (_, o) -> o = off)
          image.Gpusim.Image.local_offsets
      with
      | Some (s, _) -> Term.SymLocal s
      | None -> mismatch "machine local offset %d unmapped" off)
  in
  let i64 t =
    match Term.to_i64 t with
    | Some t -> t
    | None -> mismatch "float-valued address base"
  in
  let ptx_addr (ad : Instr.address) =
    Term.mk_bin Instr.Add Types.U64 (i64 (ptx_src ad.Instr.base))
      (Term.cst_int ad.Instr.offset)
  in
  let mach_addr (ad : Machine.Isa.addr) =
    Term.mk_bin Instr.Add Types.U64
      (i64 (mach_src ad.Machine.Isa.abase))
      (Term.cst_int ad.Machine.Isa.aoffset)
  in
  let load lsp ty addr =
    Term.Load
      { Term.lsp
      ; lty = ty
      ; ver = 0
      ; addr
      ; laff = Dom.aff_opaque
      ; lsing = None
      }
  in
  let lspace_of = function
    | Types.Global | Types.Const -> Term.LGlobal
    | Types.Shared -> Term.LShared
    | Types.Local -> Term.LLocal
    | sp -> mismatch "load space %s" (Types.space_to_string sp)
  in
  let def r t = Adef (Sym.reg_key r, Term.mk_trunc (Reg.ty r) t) in
  let ptx_action ins =
    match ins with
    | Instr.Mov (ty, d, s) -> def d (Term.mk_trunc ty (ptx_src s))
    | Instr.Binop (op, ty, d, x, y) ->
      def d (Term.mk_bin op ty (ptx_src x) (ptx_src y))
    | Instr.Mad (ty, d, x, y, z) ->
      def d (Term.mk_mad ty (ptx_src x) (ptx_src y) (ptx_src z))
    | Instr.Unop (op, ty, d, x) -> def d (Term.mk_un op ty (ptx_src x))
    | Instr.Cvt (dst, src, d, x) ->
      def d (Term.mk_cvt ~dst ~src (ptx_src x))
    | Instr.Setp (c, ty, d, x, y) ->
      def d (Term.mk_cmp c ty (ptx_src x) (ptx_src y))
    | Instr.Selp (ty, d, x, y, p) ->
      def d (Term.mk_sel ty (var_of p) (ptx_src x) (ptx_src y))
    | Instr.Ld (Types.Param, ty, d, ad) -> (
      match ad.Instr.base with
      | Instr.Oparam _ -> def d (Term.mk_trunc ty (ptx_src ad.Instr.base))
      | _ -> mismatch "ld.param with a non-parameter base")
    | Instr.Ld (sp, ty, d, ad) ->
      def d (load (lspace_of sp) ty (ptx_addr ad))
    | Instr.St (sp, ty, ad, v) ->
      Ast (sp, ty, ptx_addr ad, Term.mk_trunc ty (ptx_src v))
    | Instr.Bra l -> Abra (Cfg.Flow.target_index flow l)
    | Instr.Bra_pred (p, sense, l) ->
      Abrp (Sym.reg_key p, sense, Cfg.Flow.target_index flow l)
    | Instr.Bar_sync -> Abar
    | Instr.Ret -> Aret
  in
  let inv_reg mr =
    match Hashtbl.find_opt inv mr with
    | Some r -> r
    | None -> mismatch "machine register outside the allocation map"
  in
  let mdef mr t =
    let r = inv_reg mr in
    Adef (Sym.reg_key r, Term.mk_trunc (Reg.ty r) t)
  in
  let mach_action ins =
    match ins with
    | Machine.Isa.Mov (ty, d, s) -> mdef d (Term.mk_trunc ty (mach_src s))
    | Machine.Isa.Binop (op, ty, d, x, y) ->
      mdef d (Term.mk_bin op ty (mach_src x) (mach_src y))
    | Machine.Isa.Mad (ty, d, x, y, z) ->
      mdef d (Term.mk_mad ty (mach_src x) (mach_src y) (mach_src z))
    | Machine.Isa.Unop (op, ty, d, x) ->
      mdef d (Term.mk_un op ty (mach_src x))
    | Machine.Isa.Cvt (dst, src, d, x) ->
      mdef d (Term.mk_cvt ~dst ~src (mach_src x))
    | Machine.Isa.Setp (c, ty, d, x, y) ->
      mdef d (Term.mk_cmp c ty (mach_src x) (mach_src y))
    | Machine.Isa.Selp (ty, d, x, y, p) ->
      mdef d
        (Term.mk_sel ty (var_of (inv_reg p)) (mach_src x) (mach_src y))
    | Machine.Isa.Ld (Types.Param, ty, d, ad) -> (
      match ad.Machine.Isa.abase with
      | Machine.Isa.Param _ ->
        mdef d (Term.mk_trunc ty (mach_src ad.Machine.Isa.abase))
      | _ -> mismatch "machine ld.param with a non-parameter base")
    | Machine.Isa.Ld (sp, ty, d, ad) ->
      mdef d (load (lspace_of sp) ty (mach_addr ad))
    | Machine.Isa.St (sp, ty, ad, v) ->
      Ast (sp, ty, mach_addr ad, Term.mk_trunc ty (mach_src v))
    | Machine.Isa.Bra t -> Abra t
    | Machine.Isa.Bra_pred (p, sense, t) ->
      Abrp (Sym.reg_key (inv_reg p), sense, t)
    | Machine.Isa.Bar -> Abar
    | Machine.Isa.Exit -> Aret
  in
  let result =
    try
      let n = Cfg.Flow.num_instrs flow in
      if Array.length m.Machine.Lower.code <> n then
        mismatch "instruction count %d vs %d" n
          (Array.length m.Machine.Lower.code);
      for pc = 0 to n - 1 do
        let pa = ptx_action flow.Cfg.Flow.instrs.(pc)
        and ma = mach_action m.Machine.Lower.code.(pc) in
        if not (action_eq pa ma) then
          mismatch "pc %d: lowering of %s is not semantics-preserving" pc
            (Instr.to_string flow.Cfg.Flow.instrs.(pc))
      done;
      Ok ()
    with
    | Mismatch msg -> Error msg
    | Not_found -> Error "unresolved label"
    | Invalid_argument msg -> Error msg
  in
  match result with
  | Ok () -> outcome0 Proved ""
  | Error detail -> (
    match
      Witness.search ~left:(Witness.Run_kernel k)
        ~right:(Witness.Run_machine m) ~block_size
        ~params_ty:k.Kernel.params ~seeds:[] ()
    with
    | Some w -> outcome0 (Refuted w) detail
    | None -> outcome0 (Unknown detail) detail)

let pp_outcome fmt o =
  match o.verdict with
  | Proved ->
    Format.fprintf fmt
      "%s %s: proved (%d cutpoints, %d paths, %d obligations)" o.kernel
      o.edge o.cuts o.paths o.obligations
  | Refuted w ->
    Format.fprintf fmt "%s %s: REFUTED — %s; witness %a (%s)" o.kernel
      o.edge o.detail Witness.pp_params w.Witness.params w.Witness.descr
  | Unknown d -> Format.fprintf fmt "%s %s: unknown — %s" o.kernel o.edge d
