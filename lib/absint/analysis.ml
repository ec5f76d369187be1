(* Forward abstract interpretation over Cfg.Flow.

   The interval component models the raw 64-bit register contents viewed
   as a signed int64 (Value.to_bits). Sub-64-bit operations first pass
   their operands through the type's signed/unsigned view (mirroring
   Value.as_signed_bits / as_unsigned_bits) and re-truncate the result;
   64-bit operations can wrap mod 2^64, so any step whose concrete
   result might escape the int64 range degrades the interval to top —
   the affine form, which lives in the mod-2^64 ring, survives wraps. *)

open Ptx

type state = Dom.v Reg.Map.t

type ctx =
  { cflow : Cfg.Flow.t
  ; cblock_size : int
  ; cnum_blocks : int option
  ; cwarp_size : int
  ; cparams : (string * int64) list
  ; shared_offsets : (string * int) list
        (** resolved shared-array offsets, mirroring the loader *)
  ; local_syms : string list
  ; spill_stride : int option
        (** per-thread bytes of the Algorithm-1 shared spill sub-stack *)
  }

type t =
  { ctx : ctx
  ; instr_in : state array
  ; block_out : state option array
  ; div_block : bool array
  }

let flow t = t.ctx.cflow
let block_size t = t.ctx.cblock_size
let num_blocks t = t.ctx.cnum_blocks
let spill_stride t = t.ctx.spill_stride
let out_state t b = Option.value t.block_out.(b) ~default:Reg.Map.empty
let divergent_block t b = t.div_block.(b)

let lookup st r =
  match Reg.Map.find_opt r st with
  | Some v -> v
  | None -> Dom.top

(* ---------- state lattice ---------- *)

let state_equal = Reg.Map.equal Dom.equal

let state_merge f a b =
  Reg.Map.merge
    (fun _ x y ->
       match (x, y) with
       | Some x, Some y -> Some (f x y)
       | _ -> None)
    a b

let state_join = state_merge Dom.join
let state_widen = state_merge Dom.widen

(* keys present only in [refined] refine top: sound for a decreasing
   iteration, but only their interval is trusted *)
let state_narrow old refined =
  Reg.Map.merge
    (fun _ o r ->
       match (o, r) with
       | Some o, Some r -> Some (Dom.narrow o r)
       | Some o, None -> Some o
       | None, Some r -> Some (Dom.narrow Dom.top r)
       | None, None -> None)
    old refined

(* ---------- operand evaluation ---------- *)

let imm_value (n : int64) =
  if Int64.equal (Int64.of_int (Int64.to_int n)) n then Dom.const (Int64.to_int n)
  else { Dom.top with Dom.uni = true }

let nonneg_unbounded = Dom.Itv.range 0 max_int

let eval_operand_ ctx st = function
  | Instr.Oreg r -> lookup st r
  | Instr.Oimm n -> imm_value n
  | Instr.Ofimm _ -> { Dom.top with Dom.uni = true }
  | Instr.Ospecial sp -> begin
    let bs = ctx.cblock_size and ws = ctx.cwarp_size in
    match sp with
    | Reg.Tid_x ->
      { Dom.itv = Dom.Itv.range 0 (max 0 (bs - 1))
      ; aff = Dom.aff_tid
      ; uni = bs <= 1
      }
    | Reg.Ctaid_x ->
      { Dom.itv =
          (match ctx.cnum_blocks with
           | Some nb when nb >= 1 -> Dom.Itv.range 0 (nb - 1)
           | _ -> nonneg_unbounded)
      ; aff = Dom.aff_ctaid
      ; uni = true
      }
    | Reg.Ntid_x -> Dom.const bs
    | Reg.Nctaid_x ->
      (match ctx.cnum_blocks with
       | Some nb -> Dom.const nb
       | None -> { Dom.itv = Dom.Itv.range 1 max_int; aff = Dom.aff_opaque; uni = true })
    | Reg.Tid_y | Reg.Ctaid_y -> Dom.const 0
    | Reg.Ntid_y | Reg.Nctaid_y -> Dom.const 1
    | Reg.Laneid ->
      { Dom.itv = Dom.Itv.range 0 (max 0 (min bs ws - 1))
      ; aff = Dom.aff_opaque
      ; uni = bs <= 1
      }
    | Reg.Warpid ->
      if bs <= ws then Dom.const 0
      else
        { Dom.itv = Dom.Itv.range 0 ((bs - 1) / max 1 ws)
        ; aff = Dom.aff_opaque
        ; uni = false
        }
  end
  | Instr.Osym s -> begin
    match List.assoc_opt s ctx.shared_offsets with
    | Some off ->
      (* a shared symbol evaluates to its (small, deterministic) layout
         offset, so the interval is exact and U32 address arithmetic on
         it keeps the affine form alive *)
      { Dom.itv = Dom.Itv.const off; aff = Dom.aff_sym (Dom.Sym s); uni = true }
    | None ->
    if List.mem s ctx.local_syms then
      (* local symbols resolve to per-thread addresses *)
      { Dom.itv = nonneg_unbounded; aff = Dom.aff_sym (Dom.Sym s); uni = false }
    else Dom.top
  end
  | Instr.Oparam _ -> { Dom.top with Dom.uni = true }

(* ---------- transfer ---------- *)

let is64 = function
  | Types.U64 | Types.S64 | Types.B64 -> true
  | _ -> false

let itv_fin (i : Dom.Itv.t) = i.Dom.Itv.lo <> min_int && i.Dom.Itv.hi <> max_int
let itv_nonneg (i : Dom.Itv.t) = i.Dom.Itv.lo >= 0

let address_in ctx st (addr : Instr.address) =
  let v = eval_operand_ ctx st addr.Instr.base in
  let off = addr.Instr.offset in
  { Dom.itv =
      (if itv_fin v.Dom.itv then Dom.Itv.add v.Dom.itv (Dom.Itv.const off)
       else Dom.Itv.top)
  ; aff = Dom.aff_add v.Dom.aff (Dom.aff_const off)
  ; uni = v.Dom.uni
  }

(* the signed/unsigned view a sub-64-bit operation takes of its operand
   (Value.as_signed_bits / as_unsigned_bits) *)
let view_range ~signed ty =
  if is64 ty then Dom.Itv.top
  else if signed then
    let w = Types.width_bytes ty * 8 in
    Dom.Itv.range (-(1 lsl (w - 1))) ((1 lsl (w - 1)) - 1)
  else
    let w = Types.width_bytes ty * 8 in
    Dom.Itv.range 0 ((1 lsl w) - 1)

let cast_view ~signed ty (v : Dom.v) =
  if is64 ty then v
  else
    let rng = view_range ~signed ty in
    if Dom.Itv.subset v.Dom.itv rng then v
    else { v with Dom.itv = rng; aff = Dom.aff_opaque }

let cast_in ty v = cast_view ~signed:(Types.is_signed ty) ty v

let binop_itv op ty (a : Dom.Itv.t) (b : Dom.Itv.t) =
  let signed = Types.is_signed ty in
  let w64 = is64 ty in
  (* 64-bit add/sub/mul/shl wrap mod 2^64: trust the interval only when
     every bound involved is finite (finite native bounds cannot
     overflow int64 undetected — the saturating ops flag it) *)
  let guard_wrap r =
    if (not w64) || (itv_fin a && itv_fin b && itv_fin r) then r else Dom.Itv.top
  in
  match op with
  | Instr.Add -> guard_wrap (Dom.Itv.add a b)
  | Instr.Sub -> guard_wrap (Dom.Itv.sub a b)
  | Instr.Mul_lo -> guard_wrap (Dom.Itv.mul a b)
  | Instr.Shl -> guard_wrap (Dom.Itv.shl a b)
  | Instr.Div ->
    if signed || (itv_nonneg a && itv_nonneg b) then Dom.Itv.div a b
    else Dom.Itv.top
  | Instr.Rem ->
    if signed || (itv_nonneg a && itv_nonneg b) then Dom.Itv.rem a b
    else Dom.Itv.top
  | Instr.Min ->
    if signed || (itv_nonneg a && itv_nonneg b) then Dom.Itv.min_ a b
    else Dom.Itv.top
  | Instr.Max ->
    if signed || (itv_nonneg a && itv_nonneg b) then Dom.Itv.max_ a b
    else Dom.Itv.top
  | Instr.And -> Dom.Itv.logand a b
  | Instr.Or -> Dom.Itv.logor a b
  | Instr.Xor -> Dom.Itv.logxor a b
  | Instr.Shr -> Dom.Itv.shr ~signed a b

let binop_aff op (va : Dom.v) (vb : Dom.v) =
  match op with
  | Instr.Add -> Dom.aff_add va.Dom.aff vb.Dom.aff
  | Instr.Sub -> Dom.aff_sub va.Dom.aff vb.Dom.aff
  | Instr.Mul_lo -> Dom.aff_mul va.Dom.aff vb.Dom.aff
  | Instr.Shl -> begin
    match Dom.Itv.singleton vb.Dom.itv with
    | Some c when c >= 0 && c < 62 -> Dom.aff_scale va.Dom.aff (1 lsl c)
    | _ -> Dom.aff_opaque
  end
  | _ -> Dom.aff_opaque

let apply_binop op ty va vb =
  if Types.is_float ty then
    Dom.truncate ty { Dom.top with Dom.uni = va.Dom.uni && vb.Dom.uni }
  else
    let a = cast_in ty va and b = cast_in ty vb in
    Dom.truncate ty
      { Dom.itv = binop_itv op ty a.Dom.itv b.Dom.itv
      ; aff = binop_aff op a b
      ; uni = va.Dom.uni && vb.Dom.uni
      }

let apply_unop op ty (va : Dom.v) =
  match op with
  | Instr.Sqrt | Instr.Rcp | Instr.Ex2 | Instr.Lg2 ->
    Dom.truncate ty { Dom.top with Dom.uni = va.Dom.uni }
  | Instr.Neg | Instr.Not | Instr.Abs ->
    if Types.is_float ty then Dom.truncate ty { Dom.top with Dom.uni = va.Dom.uni }
    else
      (* integer unops take the signed view of the operand *)
      let a = cast_view ~signed:true ty va in
      let itv, aff =
        match op with
        | Instr.Neg ->
          ( (if is64 ty && a.Dom.itv.Dom.Itv.lo = min_int then Dom.Itv.top
             else Dom.Itv.neg a.Dom.itv)
          , Dom.aff_scale a.Dom.aff (-1) )
        | Instr.Not ->
          (Dom.Itv.lognot a.Dom.itv, Dom.aff_sub (Dom.aff_const (-1)) a.Dom.aff)
        | _ ->
          (* Abs; |int64 min| wraps to itself *)
          ( (if is64 ty && a.Dom.itv.Dom.Itv.lo = min_int then Dom.Itv.top
             else Dom.Itv.abs_ a.Dom.itv)
          , Dom.aff_opaque )
      in
      Dom.truncate ty { Dom.itv = itv; aff; uni = va.Dom.uni }

let apply_cvt ~dst ~src (va : Dom.v) =
  if Types.is_float src || Types.is_float dst then
    Dom.truncate dst { Dom.top with Dom.uni = va.Dom.uni }
  else Dom.truncate dst (cast_in src va)

(* [reload] tells whether a private (local or spill sub-stack) load
   returns a uniform value; see the private-memory model below *)
let apply_load ctx ~reload space ty addr (va_base : Dom.v) =
  match space with
  | Types.Param -> begin
    match addr.Instr.base with
    | Instr.Oparam p when addr.Instr.offset = 0 -> begin
      match List.assoc_opt p ctx.cparams with
      | Some v -> Dom.truncate ty (imm_value v)
      | None ->
        { Dom.itv = Dom.type_range ty; aff = Dom.aff_sym (Dom.Param p); uni = true }
    end
    | _ -> { Dom.itv = Dom.type_range ty; aff = Dom.aff_opaque; uni = true }
  end
  | Types.Const ->
    { Dom.itv = Dom.type_range ty; aff = Dom.aff_opaque; uni = va_base.Dom.uni }
  | Types.Local | Types.Shared ->
    { Dom.itv = Dom.type_range ty; aff = Dom.aff_opaque; uni = reload space ty addr }
  | Types.Global | Types.Reg ->
    { Dom.itv = Dom.type_range ty; aff = Dom.aff_opaque; uni = false }

let transfer_instr ctx ~div ~reload st ins =
  let ev op = eval_operand_ ctx st op in
  let def r v =
    Reg.Map.add r { v with Dom.uni = v.Dom.uni && not div } st
  in
  match ins with
  | Instr.Mov (ty, d, a) -> def d (Dom.truncate ty (ev a))
  | Instr.Binop (op, ty, d, a, b) -> def d (apply_binop op ty (ev a) (ev b))
  | Instr.Mad (ty, d, a, b, c) ->
    let m = apply_binop Instr.Mul_lo ty (ev a) (ev b) in
    def d (apply_binop Instr.Add ty m (ev c))
  | Instr.Unop (op, ty, d, a) -> def d (apply_unop op ty (ev a))
  | Instr.Cvt (dt, src, d, a) -> def d (apply_cvt ~dst:dt ~src (ev a))
  | Instr.Setp (_, _, d, a, b) ->
    let va = ev a and vb = ev b in
    def d
      { Dom.itv = Dom.Itv.range 0 1
      ; aff = Dom.aff_opaque
      ; uni = va.Dom.uni && vb.Dom.uni
      }
  | Instr.Selp (ty, d, a, b, p) ->
    let va = ev a and vb = ev b and vp = lookup st p in
    let j = Dom.join va vb in
    def d
      (Dom.truncate ty { j with Dom.uni = va.Dom.uni && vb.Dom.uni && vp.Dom.uni })
  | Instr.Ld (space, ty, d, addr) ->
    def d (apply_load ctx ~reload:(reload st) space ty addr (ev addr.Instr.base))
  | Instr.St _ | Instr.Bra _ | Instr.Bra_pred _ | Instr.Bar_sync | Instr.Ret -> st

(* ---------- per-thread private memory ----------

   Local memory is private to a thread, and so is the Algorithm-1
   shared spill sub-stack ([SpillShm + stride*tid + slot]): a load from
   either returns what the same thread stored. A private load is
   therefore only as divergent as the stores that may write its slot,
   and a spilled uniform value (a loop counter, say) reloads uniform
   instead of dragging its loop into divergent control flow. *)

(* the bytes a private access touches: [Some (sym, lo, hi)] for a
   thread-invariant slot, [None] when it may touch anything *)
type slot = (string * int * int) option

let slots_overlap (a : slot) (b : slot) =
  match (a, b) with
  | Some (s1, lo1, hi1), Some (s2, lo2, hi2) -> s1 = s2 && lo1 < hi2 && lo2 < hi1
  | None, _ | _, None -> true

let spill_sym = Regalloc.Spill.shared_stack_sym

(* [SpillShm + stride*tid + base] with the slot inside the thread's own
   sub-stack *)
let private_shm ctx (f : Dom.aff) width =
  match ctx.spill_stride with
  | Some stride ->
    f.Dom.exact
    && f.Dom.sym = Some (Dom.Sym spill_sym)
    && f.Dom.tid = stride
    && f.Dom.cta = 0
    && f.Dom.base >= 0
    && f.Dom.base + width <= stride
  | None -> false

(* the slot of a private access, or [None] for a shared access outside
   the sub-stack pattern *)
let private_slot ctx space ty (f : Dom.aff) : slot option =
  let w = Types.width_bytes ty in
  match space with
  | Types.Local -> begin
    match f.Dom.sym with
    | Some (Dom.Sym s) when f.Dom.exact && f.Dom.tid = 0 && f.Dom.cta = 0 ->
      Some (Some (s, f.Dom.base, f.Dom.base + w))
    | _ -> Some None
  end
  | Types.Shared when private_shm ctx f w ->
    Some (Some (spill_sym, f.Dom.base, f.Dom.base + w))
  | _ -> None

(* can a shared store outside the sub-stack pattern write into it? only
   an exact store to another declared symbol provably cannot *)
let may_hit_spill (f : Dom.aff) =
  not
    (f.Dom.exact
     &&
     match f.Dom.sym with
     | Some (Dom.Sym s) -> s <> spill_sym
     | Some (Dom.Param _) | None -> false)

(* ---------- control dependence (post-dominator tree walk) ---------- *)

let compute_control_deps (flow : Cfg.Flow.t) pd =
  let nb = Cfg.Flow.num_blocks flow in
  let deps = Array.make nb [] in
  Array.iter
    (fun (b : Cfg.Flow.block) ->
       match b.Cfg.Flow.succs with
       | [] | [ _ ] -> ()
       | succs ->
         let stop = Cfg.Dominance.idom pd b.Cfg.Flow.bid in
         List.iter
           (fun s ->
              let rec walk x steps =
                if steps > nb then ()
                else if Some x = stop then ()
                else begin
                  if not (List.mem b.Cfg.Flow.bid deps.(x)) then
                    deps.(x) <- b.Cfg.Flow.bid :: deps.(x);
                  match Cfg.Dominance.idom pd x with
                  | None -> ()
                  | Some p -> walk p (steps + 1)
                end
              in
              walk s 0)
           succs)
    flow.Cfg.Flow.blocks;
  deps

(* ---------- driver ---------- *)

let run ?(block_size = 128) ?num_blocks ?(warp_size = 32) ?(params = []) flow =
  let k = flow.Cfg.Flow.kernel in
  let syms space =
    List.filter_map
      (fun d ->
         if d.Kernel.dspace = space then Some d.Kernel.dname else None)
      k.Kernel.decls
  in
  (* shared symbols resolve to concrete offsets at the sequential
     aligned layout both interpreters load at, so the singletons below
     are exact *)
  let shared_offsets, _ = Gpusim.Image.layout_decls k.Kernel.decls Types.Shared in
  let ctx =
    { cflow = flow
    ; cblock_size = block_size
    ; cnum_blocks = num_blocks
    ; cwarp_size = warp_size
    ; cparams = params
    ; shared_offsets
    ; local_syms = syms Types.Local
    ; spill_stride = Regalloc.Spill.shared_stride_of_kernel ~block_size k
    }
  in
  let nb = Cfg.Flow.num_blocks flow in
  let ni = Cfg.Flow.num_instrs flow in
  let instr_in = Array.make ni Reg.Map.empty in
  let block_in : state option array = Array.make nb None in
  let block_out : state option array = Array.make nb None in
  let div_block = Array.make nb false in
  let headers =
    Cfg.Loops.back_edges flow |> List.map snd |> List.sort_uniq compare
  in
  let in_changes = Array.make nb 0 in
  let pd = Cfg.Dominance.post_dominators flow in
  let cdeps = compute_control_deps flow pd in
  let private_stores = ref [] in
  Cfg.Flow.iter_instrs flow (fun i -> function
    | Instr.St (((Types.Local | Types.Shared) as space), ty, addr, v) ->
      private_stores := (i, space, ty, addr, v) :: !private_stores
    | _ -> ());
  (* sticky: may the private store at [i] write a divergent value (or,
     outside the sub-stack pattern, another thread's slot)? *)
  let store_div = Array.make ni false in
  (* the slots those stores write, as of the last sweep; empty at first,
     so reloads start uniform: a spilled counter's store depends on its
     own reload, and a pessimistic start would never recover *)
  let div_writes = ref [] in
  let reload st space ty addr =
    match private_slot ctx space ty (address_in ctx st addr).Dom.aff with
    | None -> false
    | Some slot ->
      not
        (List.exists
           (fun (sp, s) -> sp = space && slots_overlap slot s)
           !div_writes)
  in
  let transfer_block (b : Cfg.Flow.block) in_st =
    let st = ref in_st in
    for i = b.Cfg.Flow.first to b.Cfg.Flow.last do
      instr_in.(i) <- !st;
      st :=
        transfer_instr ctx ~div:div_block.(b.Cfg.Flow.bid) ~reload !st
          flow.Cfg.Flow.instrs.(i)
    done;
    !st
  in
  let join_preds (b : Cfg.Flow.block) =
    if b.Cfg.Flow.bid = 0 then Some Reg.Map.empty
    else
      List.fold_left
        (fun acc p ->
           match (acc, block_out.(p)) with
           | None, o -> o
           | a, None -> a
           | Some a, Some o -> Some (state_join a o))
        None b.Cfg.Flow.preds
  in
  let reached i = block_in.(flow.Cfg.Flow.block_of_instr.(i)) <> None in
  (* does block [d] hand a partial warp to the blocks control dependent
     on it: it runs divergently, or its branch is taken divergently? *)
  let splits d =
    div_block.(d)
    ||
    let last = flow.Cfg.Flow.blocks.(d).Cfg.Flow.last in
    match flow.Cfg.Flow.instrs.(last) with
    | Instr.Bra_pred (p, _, _) ->
      reached last && not (lookup instr_in.(last) p).Dom.uni
    | _ -> false
  in
  (* the slots of the reached private stores that may write divergently *)
  let divergent_writes () =
    List.filter_map
      (fun (i, space, ty, addr, v) ->
         if not (reached i) then None
         else begin
           let f = (address_in ctx instr_in.(i) addr).Dom.aff in
           let slot = private_slot ctx space ty f in
           if not store_div.(i) then
             store_div.(i) <-
               (match slot with
                | Some _ ->
                  (not (eval_operand_ ctx instr_in.(i) v).Dom.uni)
                  || div_block.(flow.Cfg.Flow.block_of_instr.(i))
                | None -> may_hit_spill f);
           if store_div.(i) then Some (space, Option.join slot) else None
         end)
      !private_stores
  in
  let sweep = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr sweep;
    Array.iter
      (fun (b : Cfg.Flow.block) ->
         match join_preds b with
         | None -> ()
         | Some joined ->
           let bid = b.Cfg.Flow.bid in
           let in' =
             match block_in.(bid) with
             | Some old
               when (List.mem bid headers && in_changes.(bid) >= 2)
                    || !sweep > 64 ->
               state_widen old (state_join old joined)
             | Some old -> state_join old joined
             | None -> joined
           in
           let in_dirty =
             match block_in.(bid) with
             | Some old -> not (state_equal old in')
             | None -> true
           in
           if in_dirty then begin
             block_in.(bid) <- Some in';
             in_changes.(bid) <- in_changes.(bid) + 1
           end;
           let out = transfer_block b in' in
           let out_dirty =
             match block_out.(bid) with
             | Some old -> not (state_equal old out)
             | None -> true
           in
           if out_dirty then block_out.(bid) <- Some out;
           if in_dirty || out_dirty then changed := true)
      flow.Cfg.Flow.blocks;
    (* divergence feedback: a block control dependent on a divergently
       taken branch, or on a divergent block, executes with a partial
       warp; a private reload is as divergent as the stores to its slot *)
    for x = 0 to nb - 1 do
      if (not div_block.(x)) && List.exists splits cdeps.(x) then begin
        div_block.(x) <- true;
        changed := true
      end
    done;
    let writes = divergent_writes () in
    if writes <> !div_writes then begin
      div_writes := writes;
      changed := true
    end
  done;
  (* two decreasing passes recover bounds the widening destroyed *)
  for _ = 1 to 2 do
    Array.iter
      (fun (b : Cfg.Flow.block) ->
         match (block_in.(b.Cfg.Flow.bid), join_preds b) with
         | Some old, Some joined ->
           let in' = state_narrow old joined in
           block_in.(b.Cfg.Flow.bid) <- Some in';
           block_out.(b.Cfg.Flow.bid) <- Some (transfer_block b in')
         | _ -> ())
      flow.Cfg.Flow.blocks
  done;
  { ctx; instr_in; block_out; div_block }

let eval_operand t st op = eval_operand_ t.ctx st op
let value_at t i r = lookup t.instr_in.(i) r
let operand_at t i op = eval_operand_ t.ctx t.instr_in.(i) op

let address_at t i addr = address_in t.ctx t.instr_in.(i) addr
