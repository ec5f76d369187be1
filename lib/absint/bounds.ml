open Ptx

type verdict =
  | Safe
  | Oob
  | Unknown

type access =
  { pc : int
  ; space : Types.space
  ; width : int
  ; store : bool
  ; verdict : verdict
  ; bound : Gpusim.Sancheck.bound option
  ; reason : string
  }

type t =
  { accesses : access list
  ; shared_bytes : int
  ; local_frame : int
  ; num_instrs : int
  }

(* Keep the delta arithmetic far away from native-int overflow; address
   strides beyond this are opaque anyway. *)
let coeff_sane c = abs c <= 0x3FFF_FFFF

(* Range of [base + tid*t + cta*c] over tid in [0, bs) and ctaid in
   [0, nb); [None] when the ctaid coefficient matters but the grid size
   is unknown. *)
let delta_range ~bs ~nb (a : Dom.aff) =
  if not (coeff_sane a.Dom.tid && coeff_sane a.Dom.cta && coeff_sane a.Dom.base)
  then None
  else begin
    let span c lo hi = if c >= 0 then (c * lo, c * hi) else (c * hi, c * lo) in
    let tl, th = span a.Dom.tid 0 (max 0 (bs - 1)) in
    match (a.Dom.cta, nb) with
    | 0, _ -> Some (a.Dom.base + tl, a.Dom.base + th)
    | c, Some nb when nb >= 1 ->
      let cl, ch = span c 0 (nb - 1) in
      Some (a.Dom.base + tl + cl, a.Dom.base + th + ch)
    | _ -> None
  end

let itv_lo (i : Dom.Itv.t) = i.Dom.Itv.lo
let itv_hi (i : Dom.Itv.t) = i.Dom.Itv.hi
let fin_lo i = itv_lo i <> min_int
let fin_hi i = itv_hi i <> max_int

(* Uniform deltas (no tid/ctaid term) are realized by every executing
   lane, so an escape is a fault on any execution, divergent or not.
   Non-uniform escapes are only proven when the whole range misses the
   extent. *)
let classify_delta ~dmin ~dmax ~width ~lo ~hi ~uniform =
  if dmin >= lo && dmax + width <= hi then Safe
  else if dmin >= hi || dmax + width <= lo || uniform then Oob
  else Unknown

let classify_shared ~bs ~nb ~shared_bytes ~offsets ~sizes ~spill_stride
    (av : Dom.v) ~width =
  let itv = av.Dom.itv in
  let seg = Gpusim.Sancheck.Segment { lo = 0; hi = shared_bytes } in
  let sym =
    match Dom.decl_sym av.Dom.aff with
    | Some s when List.mem_assoc s offsets -> Some s
    | _ -> None
  in
  match sym with
  | Some s -> begin
    let off_s = List.assoc s offsets in
    let size_s = List.assoc s sizes in
    let a = av.Dom.aff in
    match spill_stride with
    | Some ps when s = Regalloc.Spill.shared_stack_sym ->
      (* TLP-dependent spill region: the segment is the executing
         thread's own sub-stack *)
      let pt = Gpusim.Sancheck.Per_thread { base = off_s; stride = ps } in
      if a.Dom.cta = 0 && a.Dom.tid = ps && coeff_sane a.Dom.base then
        if a.Dom.base >= 0 && a.Dom.base + width <= ps then
          ( Safe
          , Some pt
          , Printf.sprintf
              "slot [%d,%d) of the thread's %dB %s sub-stack" a.Dom.base
              (a.Dom.base + width) ps s )
        else
          ( Oob
          , Some pt
          , Printf.sprintf
              "offset %d escapes the thread's %dB %s sub-stack: corrupts a \
               neighbouring thread's spill slots"
              a.Dom.base ps s )
      else
        ( Unknown
        , Some pt
        , Printf.sprintf
            "address is not tid*%d-affine into %s: per-thread sub-stack \
             containment not provable"
            ps s )
    | _ -> begin
      let sym_bound =
        Gpusim.Sancheck.Segment { lo = off_s; hi = off_s + size_s }
      in
      let sym_extent = Printf.sprintf "%s [%d,%d)" s off_s (off_s + size_s) in
      (* the interval is absolute (the symbol offset is a singleton), so
         a guard-narrowed interval can prove safety when the affine
         sweep over all tids cannot *)
      let itv_safe =
        fin_lo itv && fin_hi itv && itv_lo itv >= off_s
        && itv_hi itv + width <= off_s + size_s
      in
      let unknown why =
        if itv_safe then
          ( Safe
          , Some sym_bound
          , Printf.sprintf "offset interval [%d,%d) inside %s" (itv_lo itv)
              (itv_hi itv + width) sym_extent )
        else (Unknown, Some sym_bound, why)
      in
      match delta_range ~bs ~nb a with
      | Some (dmin, dmax) -> begin
        match
          classify_delta ~dmin ~dmax ~width ~lo:0 ~hi:size_s
            ~uniform:(a.Dom.tid = 0 && a.Dom.cta = 0)
        with
        | Safe ->
          ( Safe
          , Some sym_bound
          , Printf.sprintf "footprint [%d,%d) inside %s" dmin (dmax + width)
              sym_extent )
        | Oob ->
          ( Oob
          , Some sym_bound
          , Printf.sprintf "footprint [%d,%d) escapes %s" dmin (dmax + width)
              sym_extent )
        | Unknown ->
          unknown
            (Printf.sprintf "footprint [%d,%d) may escape %s" dmin
               (dmax + width) sym_extent)
      end
      | None ->
        unknown
          (Printf.sprintf "offset into %s not statically bounded" sym_extent)
    end
  end
  | None ->
    (* no provable symbol base: hold the absolute offset interval to the
       whole shared segment *)
    if
      fin_lo itv && fin_hi itv && itv_lo itv >= 0
      && itv_hi itv + width <= shared_bytes
    then
      ( Safe
      , Some seg
      , Printf.sprintf "offset interval [%d,%d) inside the %dB shared segment"
          (itv_lo itv) (itv_hi itv + width) shared_bytes )
    else if
      (fin_lo itv && itv_lo itv >= shared_bytes)
      || (fin_hi itv && itv_hi itv + width <= 0)
    then
      ( Oob
      , Some seg
      , Printf.sprintf "offset interval outside the %dB shared segment"
          shared_bytes )
    else
      ( Unknown
      , Some seg
      , Printf.sprintf
          "address not a provable affine form or bounded interval (%dB \
           shared segment)"
          shared_bytes )

let classify_local ~bs ~nb ~frame ~offsets ~sizes (av : Dom.v) ~width =
  let frame_bound = Gpusim.Sancheck.Segment { lo = 0; hi = frame } in
  let sym =
    match Dom.decl_sym av.Dom.aff with
    | Some s when List.mem_assoc s offsets -> Some s
    | _ -> None
  in
  match sym with
  | Some s -> begin
    let off_s = List.assoc s offsets in
    let size_s = List.assoc s sizes in
    let a = av.Dom.aff in
    match delta_range ~bs ~nb a with
    | Some (dmin, dmax) ->
      if dmin >= 0 && dmax + width <= size_s then
        ( Safe
        , Some (Gpusim.Sancheck.Segment { lo = off_s; hi = off_s + size_s })
        , Printf.sprintf "footprint [%d,%d) inside local %s [%d,%d)" dmin
            (dmax + width) s off_s (off_s + size_s) )
      else begin
        let v =
          classify_delta ~dmin:(off_s + dmin) ~dmax:(off_s + dmax) ~width
            ~lo:0 ~hi:frame
            ~uniform:(a.Dom.tid = 0 && a.Dom.cta = 0)
        in
        let why =
          match v with
          | Safe ->
            Printf.sprintf
              "footprint [%d,%d) inside the %dB local frame" (off_s + dmin)
              (off_s + dmax + width) frame
          | Oob ->
            Printf.sprintf
              "footprint [%d,%d) escapes the %dB local frame" (off_s + dmin)
              (off_s + dmax + width) frame
          | Unknown ->
            Printf.sprintf
              "footprint [%d,%d) may escape the %dB local frame"
              (off_s + dmin) (off_s + dmax + width) frame
        in
        (v, Some frame_bound, why)
      end
    | None ->
      ( Unknown
      , Some frame_bound
      , Printf.sprintf "offset from local %s not statically bounded" s )
  end
  | None ->
    ( Unknown
    , Some frame_bound
    , Printf.sprintf
        "address is not a provable offset from a local symbol (%dB frame)"
        frame )

let classify_param (k : Kernel.t) (addr : Instr.address) ~width =
  match addr.Instr.base with
  | Instr.Oparam p -> begin
    match List.assoc_opt p k.Kernel.params with
    | Some pty ->
      let pw = Types.width_bytes pty in
      if addr.Instr.offset = 0 && width <= pw then
        (Safe, None, Printf.sprintf "reads the %dB parameter entry %s" pw p)
      else
        ( Oob
        , None
        , Printf.sprintf
            "offset %d / width %d escapes the %dB parameter entry %s"
            addr.Instr.offset width pw p )
    | None -> (Oob, None, Printf.sprintf "unknown parameter %s" p)
  end
  | Instr.Oreg _ | Instr.Oimm _ | Instr.Ofimm _ | Instr.Ospecial _
  | Instr.Osym _ ->
    (Oob, None, "ld.param base is not a parameter")

let analyze an =
  let flow = Analysis.flow an in
  let k = flow.Cfg.Flow.kernel in
  let bs = Analysis.block_size an in
  let nb = Analysis.num_blocks an in
  let shared_offsets, shared_bytes =
    Gpusim.Image.layout_decls k.Kernel.decls Types.Shared
  in
  let local_offsets, local_frame =
    Gpusim.Image.layout_decls k.Kernel.decls Types.Local
  in
  let sizes space =
    List.filter_map
      (fun (d : Kernel.decl) ->
         if d.Kernel.dspace = space then
           Some (d.Kernel.dname, Kernel.decl_bytes d)
         else None)
      k.Kernel.decls
  in
  let shared_sizes = sizes Types.Shared in
  let local_sizes = sizes Types.Local in
  let accesses = ref [] in
  Cfg.Flow.iter_instrs flow (fun i ins ->
    let record space ty addr ~store =
      let width = Types.width_bytes ty in
      let verdict, bound, reason =
        match space with
        | Types.Shared ->
          classify_shared ~bs ~nb ~shared_bytes ~offsets:shared_offsets
            ~sizes:shared_sizes ~spill_stride:(Analysis.spill_stride an)
            (Analysis.address_at an i addr)
            ~width
        | Types.Local ->
          classify_local ~bs ~nb ~frame:local_frame ~offsets:local_offsets
            ~sizes:local_sizes
            (Analysis.address_at an i addr)
            ~width
        | Types.Param -> classify_param k addr ~width
        | Types.Global | Types.Const | Types.Reg -> assert false
      in
      accesses :=
        { pc = i; space; width; store; verdict; bound; reason } :: !accesses
    in
    match ins with
    | Instr.Ld (((Types.Shared | Types.Local | Types.Param) as sp), ty, _, addr)
      ->
      record sp ty addr ~store:false
    | Instr.St (((Types.Shared | Types.Local) as sp), ty, addr, _) ->
      record sp ty addr ~store:true
    | _ -> ());
  { accesses = List.rev !accesses
  ; shared_bytes
  ; local_frame
  ; num_instrs = Cfg.Flow.num_instrs flow
  }

let counts t =
  List.fold_left
    (fun (s, o, u) a ->
       match a.verdict with
       | Safe -> (s + 1, o, u)
       | Oob -> (s, o + 1, u)
       | Unknown -> (s, o, u + 1))
    (0, 0, 0) t.accesses

let mask ?force t =
  let claims =
    List.filter_map
      (fun a ->
         match a.bound with
         | None -> None
         | Some b ->
           let c =
             match a.verdict with
             | Safe -> Gpusim.Sancheck.Proven_safe b
             | Oob -> Gpusim.Sancheck.Proven_oob b
             | Unknown -> Gpusim.Sancheck.Residual b
           in
           Some (a.pc, c))
      t.accesses
  in
  Gpusim.Sancheck.make ?force ~num_instrs:t.num_instrs claims
