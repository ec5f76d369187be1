(* Reference SIMT interpreter.

   This is the original boxed interpreter, kept as the semantic oracle
   for {!Gpusim.Interp}'s predecoded/unboxed fast path: it re-matches
   [Ptx.Instr.t] constructors at every step, keys registers through a
   [Hashtbl] of boxed [Value.t] arrays and resolves symbols/params with
   [List.assoc]. Slow but obviously faithful to the instruction
   definitions; the differential property tests run random kernels
   through both interpreters in lockstep and require bit-identical
   registers, control flow and memory. The SIMT control (reconvergence
   stack, lane memory, block scheduling) is {!Gpusim.Simt}'s, shared
   with the machine-ISA executor. Only the tests run it. *)

open Gpusim

type launch_ctx = Simt.launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
  }

type block_ctx = Simt.block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  }

type warp = (int, Value.t array) Hashtbl.t Simt.warp

let reg_key r =
  let cls =
    match Ptx.Types.reg_class (Ptx.Reg.ty r) with
    | Ptx.Types.Cpred -> 0
    | Ptx.Types.C32 -> 1
    | Ptx.Types.C64 -> 2
  in
  (cls lsl 24) lor Ptx.Reg.id r

let make_block launch ~ctaid ~warp_size =
  Simt.make_block launch ~ctaid ~warp_size (fun () -> Hashtbl.create 64)

let is_done = Simt.is_done
let pc = Simt.pc
let active_mask = Simt.active_mask
let block_of = Simt.block_of
let warp_id = Simt.warp_id

let image w = (Simt.block_of w).launch.image
let instrs w = (image w).Image.flow.Cfg.Flow.instrs
let peek w = Simt.fetch w (instrs w)

let read_reg w r =
  let key = reg_key r in
  let regs = Simt.regs w in
  match Hashtbl.find_opt regs key with
  | Some a -> a
  | None ->
    let a = Array.make (Simt.nlanes w) Value.zero in
    Hashtbl.replace regs key a;
    a

let read_reg_values w r = Array.copy (read_reg w r)

let param_value w name =
  match List.assoc_opt name (Simt.block_of w).launch.params with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Refinterp: unbound parameter %s" name)

let sym_value w lane name =
  (* shared symbols resolve to an offset inside the block's shared region;
     local symbols resolve to a globally-unique per-thread address *)
  let image = image w in
  match List.assoc_opt name image.Image.shared_offsets with
  | Some off -> Value.of_int off
  | None ->
    (match List.assoc_opt name image.Image.local_offsets with
     | Some off -> Value.I (Simt.local_addr w lane off)
     | None -> invalid_arg (Printf.sprintf "Refinterp: unknown symbol %s" name))

let eval w lane (op : Ptx.Instr.operand) =
  match op with
  | Ptx.Instr.Oreg r -> (read_reg w r).(lane)
  | Ptx.Instr.Oimm i -> Value.I i
  | Ptx.Instr.Ofimm f -> Value.F f
  | Ptx.Instr.Ospecial s -> Simt.special w lane s
  | Ptx.Instr.Osym s -> sym_value w lane s
  | Ptx.Instr.Oparam p -> param_value w p

let addr_of w lane (a : Ptx.Instr.address) =
  Int64.add (Value.to_int64 (eval w lane a.base)) (Int64.of_int a.offset)

type exec =
  | E_alu of Ptx.Instr.op_class
  | E_mem of
      { space : Ptx.Types.space
      ; write : bool
      ; width : int
      ; lane_addrs : (int * int64) list
      }
  | E_barrier
  | E_exit

let step w =
  Simt.step w (instrs w) ~exit:E_exit (fun ~pc ~mask ins ->
    let iter_active = Simt.iter_active w mask in
    let set_reg r lane v =
      (read_reg w r).(lane) <- Value.truncate (Ptx.Reg.ty r) v
    in
    (* shared, global and local lane accesses; the sanitizer may
       suppress a lane, which then neither reads nor writes *)
    let mem_access ~space ~write ty addr access =
      let lane_addrs = ref [] in
      let width = Ptx.Types.width_bytes ty in
      iter_active (fun l ->
        match Simt.lane_mem w ~pc ~lane:l ~width space (addr_of w l addr) with
        | Some (m, a) ->
          lane_addrs := (l, a) :: !lane_addrs;
          access l m a
        | None -> ());
      E_mem { space; write; width; lane_addrs = List.rev !lane_addrs }
    in
    match ins with
    | Ptx.Instr.Mov (ty, d, a) ->
      iter_active (fun l -> set_reg d l (Value.truncate ty (eval w l a)));
      E_alu (Ptx.Instr.classify ins)
    | Ptx.Instr.Binop (op, ty, d, a, b) ->
      iter_active (fun l ->
        set_reg d l (Value.binop op ty (eval w l a) (eval w l b)));
      E_alu (Ptx.Instr.classify ins)
    | Ptx.Instr.Mad (ty, d, a, b, c) ->
      iter_active (fun l ->
        set_reg d l (Value.mad ty (eval w l a) (eval w l b) (eval w l c)));
      E_alu (Ptx.Instr.classify ins)
    | Ptx.Instr.Unop (op, ty, d, a) ->
      iter_active (fun l -> set_reg d l (Value.unop op ty (eval w l a)));
      E_alu (Ptx.Instr.classify ins)
    | Ptx.Instr.Cvt (dt, st, d, a) ->
      iter_active (fun l ->
        set_reg d l (Value.convert ~dst:dt ~src:st (eval w l a)));
      E_alu (Ptx.Instr.classify ins)
    | Ptx.Instr.Setp (c, ty, d, a, b) ->
      iter_active (fun l ->
        let r = Value.compare_values c ty (eval w l a) (eval w l b) in
        set_reg d l (Value.I (if r then 1L else 0L)));
      E_alu (Ptx.Instr.classify ins)
    | Ptx.Instr.Selp (ty, d, a, b, p) ->
      iter_active (fun l ->
        let pv = (read_reg w p).(l) in
        let v = if Value.to_bool pv then eval w l a else eval w l b in
        set_reg d l (Value.truncate ty v));
      E_alu (Ptx.Instr.classify ins)
    | Ptx.Instr.Ld (Ptx.Types.Param, ty, d, addr) ->
      (match addr.Ptx.Instr.base with
       | Ptx.Instr.Oparam p ->
         iter_active (fun l -> set_reg d l (Value.truncate ty (param_value w p)))
       | Ptx.Instr.Oreg _ | Ptx.Instr.Oimm _ | Ptx.Instr.Ofimm _
       | Ptx.Instr.Ospecial _ | Ptx.Instr.Osym _ ->
         invalid_arg "Refinterp: ld.param requires a parameter base");
      E_alu Ptx.Instr.Mem_const_param
    | Ptx.Instr.Ld (Ptx.Types.Const, ty, d, addr) ->
      let global = (Simt.block_of w).launch.global in
      iter_active (fun l -> set_reg d l (Memory.read global (addr_of w l addr) ty));
      E_alu Ptx.Instr.Mem_const_param
    | Ptx.Instr.Ld
        (((Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local) as space), ty, d, addr) ->
      mem_access ~space ~write:false ty addr (fun l m a ->
        set_reg d l (Memory.read m a ty))
    | Ptx.Instr.Ld ((Ptx.Types.Reg as sp), _, _, _) ->
      invalid_arg
        (Printf.sprintf "Refinterp: ld.%s unsupported" (Ptx.Types.space_to_string sp))
    | Ptx.Instr.St
        (((Ptx.Types.Shared | Ptx.Types.Global | Ptx.Types.Local) as space), ty, addr, v) ->
      mem_access ~space ~write:true ty addr (fun l m a ->
        Memory.write m a ty (eval w l v))
    | Ptx.Instr.St ((Ptx.Types.Reg | Ptx.Types.Param | Ptx.Types.Const), _, _, _)
      -> invalid_arg "Refinterp: unsupported store space"
    | Ptx.Instr.Bra l ->
      Simt.jump w (Cfg.Flow.target_index (image w).Image.flow l);
      E_alu Ptx.Instr.Ctrl
    | Ptx.Instr.Bra_pred (p, sense, l) ->
      let target = Cfg.Flow.target_index (image w).Image.flow l in
      Simt.branch w ~pc ~mask ~target (fun lane ->
        Value.to_bool (read_reg w p).(lane) = sense);
      E_alu Ptx.Instr.Ctrl
    | Ptx.Instr.Bar_sync -> E_barrier
    | Ptx.Instr.Ret ->
      Simt.exit_warp w;
      E_exit)

let outcome = function
  | E_barrier -> Simt.Barrier
  | E_exit -> Simt.Exit
  | E_alu _ | E_mem _ -> Simt.Step

let run ?sanitize (l : Launch.t) =
  let lctx = Simt.launch_ctx ?sanitize ~image:(Image.prepare l.Launch.kernel) l in
  for ctaid = 0 to l.Launch.num_blocks - 1 do
    let _block, warps = make_block lctx ~ctaid ~warp_size:l.Launch.warp_size in
    Simt.run_block ~is_done ~warps ~step:(fun w -> outcome (step w))
  done;
  lctx.Simt.global
