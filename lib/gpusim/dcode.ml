(* Predecoded kernel image.

   [Ptx.Instr.t] is convenient for construction and transformation but
   expensive to interpret: every step re-matches operand constructors,
   re-hashes register keys, walks [List.assoc] for symbols/params and
   re-resolves branch labels. This module lowers a flattened kernel
   once per {!Image} into a dense execution form the interpreter can
   run without any per-step lookups:

   - registers are renamed to consecutive slots (by [reg_key], so two
     registers with the same width class and id alias, exactly as the
     boxed interpreter's keying did);
   - branch targets and reconvergence pcs are resolved to indices;
   - shared symbols become immediates, local symbols become frame
     offsets, params become indices into a per-launch value table;
   - per-pc register use/def slot arrays and the timing classification
     are precomputed for the scoreboard;
   - the [exec] outcome the timing layer consumes is preallocated
     per pc, so the steady-state step returns an existing block.

   Statically-invalid instructions (unknown symbol, [ld.param] with a
   non-param base, unsupported spaces) are lowered to [Dbad]/[DBad]
   thunks that raise with the original interpreter's message — and only
   when executed (for operands: only when evaluated under a non-empty
   mask), preserving error timing. *)

type dop =
  | Dreg of int (* register slot *)
  | Dimm of int64 (* integer-tagged immediate *)
  | Dfimm of int64 (* float-tagged immediate (bit pattern) *)
  | Dspecial of Ptx.Reg.special
  | Dlocal of int (* local-symbol frame offset, per-lane address *)
  | Dparam of int (* index into the launch parameter table *)
  | Dbad of string (* raises [Invalid_argument] when evaluated *)

type dinstr =
  | DMov of { ty : Ptx.Types.scalar; dst : int; dty : Ptx.Types.scalar; a : dop }
  | DBinop of
      { op : Ptx.Instr.binop
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      }
  | DMad of
      { ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      ; c : dop
      }
  | DUnop of
      { op : Ptx.Instr.unop
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      }
  | DCvt of
      { dt : Ptx.Types.scalar
      ; st : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      }
  | DSetp of
      { cmp : Ptx.Instr.cmp
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      }
  | DSelp of
      { ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      ; p : int (* predicate slot *)
      }
  | DLd_param of
      { ty : Ptx.Types.scalar; dst : int; dty : Ptx.Types.scalar; pidx : int }
  | DLd of
      { space : Ptx.Types.space (* Const, Shared, Global or Local *)
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; base : dop
      ; off : int
      }
  | DSt of
      { space : Ptx.Types.space (* Shared, Global or Local *)
      ; ty : Ptx.Types.scalar
      ; base : dop
      ; off : int
      ; src : dop
      }
  | DBra of int (* resolved target pc *)
  | DBra_pred of { p : int; sense : bool; target : int; reconv : int }
  | DBar
  | DRet
  | DBad of string (* raises [Invalid_argument] when executed *)

(* What a step did, for the timing layer (re-exported as [Interp.exec]).
   Lane addresses of an [E_mem] are exposed through the warp's scratch
   buffer ([Interp.mem_count]/[mem_addr]/[mem_lane]), valid until the
   warp's next step. *)
type exec =
  | E_alu of Ptx.Instr.op_class
  | E_mem of
      { space : Ptx.Types.space
      ; write : bool
      ; width : int
      }
  | E_barrier
  | E_exit

(* branch-free SWAR popcount over OCaml's 63-bit ints: pairwise, then
   nibble-wise sums, then one multiply gathers the byte counts *)
let popcount m =
  let m = m - ((m lsr 1) land 0x1555555555555555) in
  let m = (m land 0x3333333333333333) + ((m lsr 2) land 0x3333333333333333) in
  let m = (m + (m lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (m * 0x0101010101010101) lsr 56 land 0x7F

type t =
  { code : dinstr array
  ; exec_of : exec array (* preallocated per-pc step outcome *)
  ; cls : Ptx.Instr.op_class array
  ; uses : int array array (* register slots read, per pc *)
  ; defs : int array array (* register slots written, per pc *)
  ; is_gl_mem : bool array (* goes through the global-memory LSU path *)
  ; nslots : int
  ; params : string array (* launch parameters, in first-use order *)
  ; slot_of_key : (int, int) Hashtbl.t
  }

let reg_key r =
  let cls =
    match Ptx.Types.reg_class (Ptx.Reg.ty r) with
    | Ptx.Types.Cpred -> 0
    | Ptx.Types.C32 -> 1
    | Ptx.Types.C64 -> 2
  in
  (cls lsl 24) lor Ptx.Reg.id r

let num_slots t = t.nslots
let num_params t = Array.length t.params
let param_name t i = t.params.(i)

let slot_of_reg t r = Hashtbl.find_opt t.slot_of_key (reg_key r)

let build ~(flow : Cfg.Flow.t) ~(reconv : int array)
    ~(shared_offsets : (string * int) list)
    ~(local_offsets : (string * int) list) : t =
  let instrs = flow.Cfg.Flow.instrs in
  let slot_of_key = Hashtbl.create 64 in
  let nslots = ref 0 in
  let slot_of r =
    let key = reg_key r in
    match Hashtbl.find_opt slot_of_key key with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      Hashtbl.replace slot_of_key key s;
      s
  in
  let params = ref [] and nparams = ref 0 in
  let pindex name =
    match List.assoc_opt name !params with
    | Some i -> i
    | None ->
      let i = !nparams in
      incr nparams;
      params := (name, i) :: !params;
      i
  in
  let dop = function
    | Ptx.Instr.Oreg r -> Dreg (slot_of r)
    | Ptx.Instr.Oimm i -> Dimm i
    | Ptx.Instr.Ofimm f -> Dfimm (Int64.bits_of_float f)
    | Ptx.Instr.Ospecial s -> Dspecial s
    | Ptx.Instr.Osym s -> (
      match List.assoc_opt s shared_offsets with
      | Some off -> Dimm (Int64.of_int off)
      | None -> (
        match List.assoc_opt s local_offsets with
        | Some off -> Dlocal off
        | None -> Dbad (Printf.sprintf "Interp: unknown symbol %s" s)))
    | Ptx.Instr.Oparam p -> Dparam (pindex p)
  in
  let target l = Cfg.Flow.target_index flow l in
  let lower pc ins =
    match ins with
    | Ptx.Instr.Mov (ty, d, a) ->
      DMov { ty; dst = slot_of d; dty = Ptx.Reg.ty d; a = dop a }
    | Ptx.Instr.Binop (op, ty, d, a, b) ->
      DBinop { op; ty; dst = slot_of d; dty = Ptx.Reg.ty d; a = dop a; b = dop b }
    | Ptx.Instr.Mad (ty, d, a, b, c) ->
      DMad
        { ty; dst = slot_of d; dty = Ptx.Reg.ty d
        ; a = dop a; b = dop b; c = dop c }
    | Ptx.Instr.Unop (op, ty, d, a) ->
      DUnop { op; ty; dst = slot_of d; dty = Ptx.Reg.ty d; a = dop a }
    | Ptx.Instr.Cvt (dt, st, d, a) ->
      DCvt { dt; st; dst = slot_of d; dty = Ptx.Reg.ty d; a = dop a }
    | Ptx.Instr.Setp (cmp, ty, d, a, b) ->
      DSetp
        { cmp; ty; dst = slot_of d; dty = Ptx.Reg.ty d; a = dop a; b = dop b }
    | Ptx.Instr.Selp (ty, d, a, b, p) ->
      DSelp
        { ty; dst = slot_of d; dty = Ptx.Reg.ty d
        ; a = dop a; b = dop b; p = slot_of p }
    | Ptx.Instr.Ld (Ptx.Types.Param, ty, d, addr) -> (
      match addr.Ptx.Instr.base with
      | Ptx.Instr.Oparam p ->
        (* the byte offset is ignored for parameter loads, as in the
           boxed interpreter *)
        DLd_param { ty; dst = slot_of d; dty = Ptx.Reg.ty d; pidx = pindex p }
      | Ptx.Instr.Oreg _ | Ptx.Instr.Oimm _ | Ptx.Instr.Ofimm _
      | Ptx.Instr.Ospecial _ | Ptx.Instr.Osym _ ->
        DBad "Interp: ld.param requires a parameter base")
    | Ptx.Instr.Ld
        ( (( Ptx.Types.Const | Ptx.Types.Shared | Ptx.Types.Global
           | Ptx.Types.Local ) as space)
        , ty
        , d
        , addr ) ->
      DLd
        { space; ty; dst = slot_of d; dty = Ptx.Reg.ty d
        ; base = dop addr.Ptx.Instr.base; off = addr.Ptx.Instr.offset }
    | Ptx.Instr.Ld ((Ptx.Types.Reg as sp), _, _, _) ->
      DBad
        (Printf.sprintf "Interp: ld.%s unsupported" (Ptx.Types.space_to_string sp))
    | Ptx.Instr.St
        ( ((Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local) as space)
        , ty
        , addr
        , v ) ->
      DSt
        { space; ty; base = dop addr.Ptx.Instr.base
        ; off = addr.Ptx.Instr.offset; src = dop v }
    | Ptx.Instr.St ((Ptx.Types.Reg | Ptx.Types.Param | Ptx.Types.Const), _, _, _)
      -> DBad "Interp: unsupported store space"
    | Ptx.Instr.Bra l -> DBra (target l)
    | Ptx.Instr.Bra_pred (p, sense, l) ->
      DBra_pred
        { p = slot_of p; sense; target = target l; reconv = reconv.(pc) }
    | Ptx.Instr.Bar_sync -> DBar
    | Ptx.Instr.Ret -> DRet
  in
  let code = Array.mapi lower instrs in
  let exec_of =
    Array.map
      (fun ins ->
         match ins with
         | Ptx.Instr.Ld
             ((Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local) as sp
             , ty, _, _) ->
           E_mem { space = sp; write = false; width = Ptx.Types.width_bytes ty }
         | Ptx.Instr.St
             ((Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local) as sp
             , ty, _, _) ->
           E_mem { space = sp; write = true; width = Ptx.Types.width_bytes ty }
         | Ptx.Instr.Bar_sync -> E_barrier
         | Ptx.Instr.Ret -> E_exit
         | Ptx.Instr.Mov _ | Ptx.Instr.Binop _ | Ptx.Instr.Mad _
         | Ptx.Instr.Unop _ | Ptx.Instr.Cvt _ | Ptx.Instr.Setp _
         | Ptx.Instr.Selp _ | Ptx.Instr.Ld _ | Ptx.Instr.St _
         | Ptx.Instr.Bra _ | Ptx.Instr.Bra_pred _ ->
           E_alu (Ptx.Instr.classify ins))
      instrs
  in
  let cls = Array.map Ptx.Instr.classify instrs in
  let slots rs = Array.of_list (List.map slot_of rs) in
  let uses = Array.map (fun ins -> slots (Ptx.Instr.uses ins)) instrs in
  let defs = Array.map (fun ins -> slots (Ptx.Instr.defs ins)) instrs in
  let is_gl_mem =
    Array.map
      (fun c ->
         match c with
         | Ptx.Instr.Mem_global | Ptx.Instr.Mem_local -> true
         | Ptx.Instr.Alu | Ptx.Instr.Alu_heavy | Ptx.Instr.Sfu
         | Ptx.Instr.Mem_shared | Ptx.Instr.Mem_const_param | Ptx.Instr.Ctrl
         | Ptx.Instr.Barrier -> false)
      cls
  in
  let param_names = Array.make !nparams "" in
  List.iter (fun (name, i) -> param_names.(i) <- name) !params;
  { code
  ; exec_of
  ; cls
  ; uses
  ; defs
  ; is_gl_mem
  ; nslots = !nslots
  ; params = param_names
  ; slot_of_key
  }
