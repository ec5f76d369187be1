module RSet = Ptx.Reg.Set
module RMap = Ptx.Reg.Map

type strategy =
  | Chaitin_briggs
  | Linear_scan

type shared_policy =
  [ `Off
  | `Spare of int
  ]

type t =
  { kernel : Ptx.Kernel.t
  ; original : Ptx.Kernel.t
  ; virtual_kernel : Ptx.Kernel.t
  ; assignment : Ptx.Reg.t RMap.t
  ; block_size : int
  ; reg_limit : int
  ; units_used : int
  ; pred_used : int
  ; scalar_limit : int
  ; scalar_units_used : int
  ; scalarized : int
  ; spilled : Spill.placement list
  ; stats : Spill.stats
  ; weighted_local : float
  ; weighted_shared : float
  ; spill_local_bytes : int
  ; spill_shared_bytes_per_block : int
  ; rounds : int
  }

let scalar_color_base t = t.reg_limit

let is_scalar_phys t r =
  t.scalar_limit > 0
  && Ptx.Types.reg_class (Ptx.Reg.ty r) <> Ptx.Types.Cpred
  && Ptx.Reg.id r >= t.reg_limit

let max_rounds = 16

(* registers defined exactly once by a constant or built-in-register
   move can be rematerialised instead of spilled *)
let remat_candidates k =
  let defs_count = Ptx.Reg.Tbl.create 64 in
  let sources = Ptx.Reg.Tbl.create 64 in
  List.iter
    (fun ins ->
       List.iter
         (fun r ->
            Ptx.Reg.Tbl.replace defs_count r
              (1 + Option.value ~default:0 (Ptx.Reg.Tbl.find_opt defs_count r)))
         (Ptx.Instr.defs ins);
       match ins with
       | Ptx.Instr.Mov (_, d, ((Ptx.Instr.Oimm _ | Ptx.Instr.Ofimm _ | Ptx.Instr.Ospecial _) as op)) ->
         Ptx.Reg.Tbl.replace sources d op
       | _ -> ())
    (Ptx.Kernel.instrs k);
  fun r ->
    match (Ptx.Reg.Tbl.find_opt defs_count r, Ptx.Reg.Tbl.find_opt sources r) with
    | Some 1, Some op -> Some op
    | _ -> None

let check_scalar_limit scalar_limit =
  if scalar_limit < 0 then invalid_arg "Allocator: scalar_limit must be >= 0";
  if scalar_limit > 0 && scalar_limit < 8 then
    invalid_arg "Allocator: a scalar file needs at least 8 units"

let empty_result =
  { Coloring.assignment = RMap.empty; spilled = []; colors_used = 0; type_waste = 0 }

(* The half of a colouring round that does not depend on [reg_limit]:
   the round kernel's graph and spill costs, the 64-bit demand, the
   predicate and scalar-file colourings, and the vector subproblems,
   each waiting for its budget. *)
type prepared =
  { vec64 : int -> Coloring.result
  ; vec32 : int -> Coloring.result
  ; is_scalar : Ptx.Reg.t -> bool
  ; scalar_limit : int
  ; need64 : int
  ; rp : Coloring.result
  ; s64 : Coloring.result
  ; s32 : Coloring.result
  }

let prepare ~strategy ~scalar ~scalar_limit ~cost flow live =
  (* [color ~member cls] sets up one subproblem; applied to a budget,
     it colours it *)
  let color =
    match strategy with
    | Chaitin_briggs ->
      let graph = Interference.build flow live in
      fun ~member cls ->
        let p = Coloring.problem ~member ~graph ~cls ~spill_cost:cost () in
        fun k -> Coloring.solve p ~k
    | Linear_scan ->
      let ranges = Cfg.Liveness.live_ranges flow live in
      fun ~member cls k -> Linear_scan.color ~member ~ranges ~cls ~k ~spill_cost:cost ()
  in
  (* the scalar partition: caller-classified registers move to the
     per-warp scalar file, colouring against [scalar_limit] instead of
     [reg_limit]. Spill temporaries and other registers born inside
     this round's rewrite are never in the caller's set, so they fall
     to the vector file, as does everything when scalar_limit = 0. *)
  let is_scalar r =
    scalar_limit > 0
    && Ptx.Types.reg_class (Ptx.Reg.ty r) <> Ptx.Types.Cpred
    && scalar r
  in
  let is_vector r = not (is_scalar r) in
  let need64 = Cfg.Liveness.max_live live Ptx.Types.C64 in
  (* linear scan works on conservative whole-range intervals, which
     overlap more than true liveness: give it head-room *)
  let need64 =
    match strategy with
    | Chaitin_briggs -> need64
    | Linear_scan -> need64 + 2
  in
  let rp = color ~member:(fun _ -> true) Ptx.Types.Cpred 1024 in
  let s64, s32 =
    if scalar_limit = 0 then (empty_result, empty_result)
    else begin
      let s64 = color ~member:is_scalar Ptx.Types.C64 (scalar_limit / 2) in
      let ks32 = scalar_limit - (2 * s64.Coloring.colors_used) in
      (s64, color ~member:is_scalar Ptx.Types.C32 (max ks32 0))
    end
  in
  { vec64 = color ~member:is_vector Ptx.Types.C64
  ; vec32 = color ~member:is_vector Ptx.Types.C32
  ; is_scalar
  ; scalar_limit
  ; need64
  ; rp
  ; s64
  ; s32
  }

(* The other half: the vector classes against [reg_limit], 64-bit
   first, the 32-bit class getting what is left. *)
let color_vectors p ~reg_limit =
  let need64 = p.need64 in
  let k64 =
    if (2 * need64) + 4 <= reg_limit then need64
    else begin
      (* forcing 64-bit spills: the class still needs room for the
         spill-stack base registers (up to 2) plus the operand/result
         temporaries of one rewritten 64-bit instruction *)
      let floor64 = min need64 5 in
      max floor64 ((reg_limit - 4) / 2)
    end
  in
  let r64 = p.vec64 k64 in
  let k32 = reg_limit - (2 * r64.Coloring.colors_used) in
  if k32 < 3 then
    failwith
      (Printf.sprintf
         "Allocator: reg_limit %d too small (the 64-bit colours take %d units, \
          leaving %d of the 3 the 32-bit class needs)"
         reg_limit (2 * r64.Coloring.colors_used) (max k32 0));
  (r64, p.vec32 k32)

let scalar_file_units p = p.s32.Coloring.colors_used + (2 * p.s64.Coloring.colors_used)

let spill_cost ?(infra = RSet.empty) ?(preference = `Cheap_first) defuse r =
  if RSet.mem r infra then infinity
  else
    let w =
      match RMap.find_opt r defuse with
      | Some s -> s.Cfg.Defuse.weighted
      | None -> 0.
    in
    match preference with
    | `Cheap_first -> w
    | `Expensive_first -> 1. /. (1. +. w)

(* Round 1 of an allocation: no spill code yet, so the round kernel is
   the input itself and no register is unspillable. It depends on the
   strategy, the spill preference and the scalar partition, never on
   the spill options, which only shape later rounds. *)
type probe =
  { input : Ptx.Kernel.t
  ; defuse : Cfg.Defuse.stats RMap.t  (** the input's, for later rounds' gains *)
  ; first : prepared
  }

let start ~strategy ~preference ~scalar ~scalar_limit flow live =
  let defuse = Cfg.Defuse.compute flow in
  { input = flow.Cfg.Flow.kernel
  ; defuse
  ; first =
      prepare ~strategy ~scalar ~scalar_limit ~cost:(spill_cost ~preference defuse)
        flow live
  }

let new_spills (r64 : Coloring.result) (r32 : Coloring.result) p =
  r64.spilled @ r32.spilled @ p.s64.Coloring.spilled @ p.s32.Coloring.spilled

(* The end of a round: colour the vector classes of [p] against
   [reg_limit]; when nothing spills, substitute physical registers for
   virtual ones in [virtual_kernel], else hand back the new spills.
   Scalar-file colours are offset by [reg_limit], so physical ids
   partition cleanly: id < reg_limit is a vector register, id >=
   reg_limit a scalar one (per class; predicates untouched). *)
let conclude p ~original ~virtual_kernel ~(spec : Spill.spec) ~stats ~weighted_gain
    ~block_size ~reg_limit ~round =
  let r64, r32 = color_vectors p ~reg_limit in
  match new_spills r64 r32 p with
  | _ :: _ as spills -> Error spills
  | [] ->
    let { is_scalar; scalar_limit; rp; s64; s32; _ } = p in
    let lookup r =
      let asg, base =
        match Ptx.Types.reg_class (Ptx.Reg.ty r) with
        | Ptx.Types.C64 ->
          if is_scalar r then (s64.Coloring.assignment, reg_limit)
          else (r64.Coloring.assignment, 0)
        | Ptx.Types.C32 ->
          if is_scalar r then (s32.Coloring.assignment, reg_limit)
          else (r32.Coloring.assignment, 0)
        | Ptx.Types.Cpred -> (rp.Coloring.assignment, 0)
      in
      match RMap.find_opt r asg with
      | Some c -> Ptx.Reg.make (base + c) (Ptx.Reg.ty r)
      | None -> r
    in
    let allocated = Ptx.Kernel.map_instrs (Ptx.Instr.map_regs lookup) virtual_kernel in
    let assignment =
      RSet.fold
        (fun r acc -> RMap.add r (lookup r) acc)
        (Ptx.Kernel.registers virtual_kernel) RMap.empty
    in
    let weighted space =
      List.fold_left
        (fun acc (pl : Spill.placement) ->
           if Ptx.Types.equal_space pl.space space then acc +. weighted_gain pl.reg
           else acc)
        0. spec.placements
    in
    Ok
      { kernel = allocated
      ; original
      ; virtual_kernel
      ; assignment
      ; block_size
      ; reg_limit
      ; units_used = r32.Coloring.colors_used + (2 * r64.Coloring.colors_used)
      ; pred_used = rp.Coloring.colors_used
      ; scalar_limit
      ; scalar_units_used = scalar_file_units p
      ; scalarized =
          RMap.cardinal s32.Coloring.assignment + RMap.cardinal s64.Coloring.assignment
      ; spilled = spec.placements
      ; stats
      ; weighted_local = weighted Ptx.Types.Local
      ; weighted_shared = weighted Ptx.Types.Shared
      ; spill_local_bytes = spec.local_bytes
      ; spill_shared_bytes_per_block = spec.shared_bytes_per_thread * block_size
      ; rounds = round
      }

let no_spills = Spill.layout ~to_shared:(fun _ -> false) []

(* Round 1 ends on the input kernel itself, with no spill code. *)
let first_round pr ~block_size ~reg_limit =
  let k', stats = Spill.apply ~block_size pr.input no_spills in
  conclude pr.first ~original:pr.input ~virtual_kernel:k' ~spec:no_spills ~stats
    ~weighted_gain:(fun _ -> 0.) ~block_size ~reg_limit ~round:1

let allocate ?(strategy = Chaitin_briggs) ?(shared_policy = `Off)
    ?(spill_preference = `Cheap_first) ?shared_chunk ?(remat = false)
    ?(scalar = fun _ -> false) ?(scalar_limit = 0) ~block_size ~reg_limit k =
  check_scalar_limit scalar_limit;
  let flow = Cfg.Flow.of_kernel k in
  let pr =
    start ~strategy ~preference:spill_preference ~scalar ~scalar_limit flow
      (Cfg.Liveness.compute flow)
  in
  match first_round pr ~block_size ~reg_limit with
  | Ok a -> a
  | Error first_spills ->
    let remat_fn = if remat then remat_candidates k else fun _ -> None in
    let weighted_gain r =
      match RMap.find_opt r pr.defuse with
      | Some s -> s.Cfg.Defuse.weighted
      | None -> 0.
    in
    let static_accesses r =
      match RMap.find_opt r pr.defuse with
      | Some s -> s.Cfg.Defuse.n_defs + s.Cfg.Defuse.n_uses
      | None -> 0
    in
    let rec round i cumulative =
      if i > max_rounds then
        failwith "Allocator: spilling did not reach a fixpoint";
      let spills = RSet.elements cumulative in
      (* Algorithm 1 decides which sub-stacks move to shared memory; the
         gain of a sub-stack is the number of spill accesses it absorbs. *)
      let to_shared =
        match shared_policy with
        | `Off -> fun _ -> false
        | `Spare bytes ->
          let f =
            Shared_spill.optimize ?chunk:shared_chunk
              ~gain:(fun r -> float_of_int (static_accesses r))
              ~block_size ~spare_shm_bytes:bytes spills
          in
          (* shared spilling needs an extra 64-bit base register plus
             per-thread address setup; decline it when the absorbed
             traffic would not pay for that infrastructure *)
          let absorbed =
            List.fold_left
              (fun acc r -> if f r then acc + static_accesses r else acc)
              0 spills
          in
          if absorbed < 16 then fun _ -> false else f
      in
      let spec = Spill.layout ~remat:remat_fn ~to_shared spills in
      let k', stats = Spill.apply ~block_size k spec in
      let flow = Cfg.Flow.of_kernel k' in
      let live = Cfg.Liveness.compute flow in
      let cost =
        spill_cost ~infra:(Spill.infra_registers k k') ~preference:spill_preference
          (Cfg.Defuse.compute flow)
      in
      let p = prepare ~strategy ~scalar ~scalar_limit ~cost flow live in
      match
        conclude p ~original:k ~virtual_kernel:k' ~spec ~stats ~weighted_gain ~block_size
          ~reg_limit ~round:i
      with
      | Ok a -> a
      | Error new_spills ->
        round (i + 1) (List.fold_left (fun s r -> RSet.add r s) cumulative new_spills)
    in
    round 2 (RSet.of_list first_spills)

let probe ?(scalar = fun _ -> false) ?(scalar_limit = 0) flow live =
  check_scalar_limit scalar_limit;
  start ~strategy:Chaitin_briggs ~preference:`Cheap_first ~scalar ~scalar_limit flow live

let spill_free pr ~reg_limit =
  let r64, r32 = color_vectors pr.first ~reg_limit in
  new_spills r64 r32 pr.first = []

let finish pr ~block_size ~reg_limit =
  Result.to_option (first_round pr ~block_size ~reg_limit)

let scalar_units pr = scalar_file_units pr.first

let spill_bytes t =
  let orig_flow = Cfg.Flow.of_kernel t.original in
  let du = Cfg.Defuse.compute orig_flow in
  List.fold_left
    (fun acc (p : Spill.placement) ->
       let accesses =
         match RMap.find_opt p.reg du with
         | Some s -> s.Cfg.Defuse.n_defs + s.Cfg.Defuse.n_uses
         | None -> 0
       in
       acc + (accesses * Ptx.Types.width_bytes (Ptx.Reg.ty p.reg)))
    0 t.spilled
