exception Cycle_limit of Stats.t

(* The instruction front-end: either a live functional interpreter warp
   or a replay cursor over a previously recorded trace. The timing
   machinery below consumes only the surface both share — next pc,
   active mask, step outcome and resolved lane addresses — so replay
   produces bit-identical statistics while skipping operand evaluation
   and register-file writes entirely. *)
type front =
  | Live of Interp.warp
  | Cur of Replay.cursor

let f_done = function
  | Live w -> Interp.is_done w
  | Cur c -> Replay.is_done c

let f_fetch = function
  | Live w -> Interp.fetch w
  | Cur c -> Replay.fetch c

let f_mask = function
  | Live w -> Interp.active_mask w
  | Cur c -> Replay.active_mask c

let f_wid = function
  | Live w -> Interp.warp_id w
  | Cur c -> Replay.warp_id c

let f_step = function
  | Live w -> Interp.step w
  | Cur c -> Replay.step c

let f_mem_count = function
  | Live w -> Interp.mem_count w
  | Cur c -> Replay.mem_count c

let f_mem_addr f i =
  match f with
  | Live w -> Interp.mem_addr w i
  | Cur c -> Replay.mem_addr c i

(* an in-flight load: registers become ready when all segments return *)
type pending_load =
  { defs : int array  (** scoreboard slots (shared with Dcode, read-only) *)
  ; wslot : wstate
  ; mutable remaining : int
  ; mutable ready_at : int
  }

and wstate =
  { w : front
  ; tr : Replay.wtrace option  (** recording sink, when capturing a trace *)
  ; sb : int array  (** scoreboard: register slot -> ready cycle *)
  ; mutable waiting_barrier : bool
  ; bstate : bstate
  ; age : int  (** global age for oldest-first ordering *)
  }

and bstate =
  { mutable live_warps : int
  ; mutable at_barrier : int
  ; mutable warps : wstate list
  ; mutable paused : bool
      (** dynamic throttling: a paused block's warps are not scheduled *)
  ; seq : int
  }

type blocked =
  | Ready
  | Scoreboard
  | Mem_queue
  | Barrier
  | Done

let infinity_cycle = max_int / 2

let lsu_capacity = 64
let lsu_headroom = 8

(* ---------- the memory hierarchy behind the L1s ---------- *)

type shared_memsys =
  { l2 : Cache.t
  ; dram : Cache.Dram.t
  }

let make_shared (cfg : Config.t) =
  let dram =
    Cache.Dram.create ~latency:cfg.Config.dram_latency
      ~bytes_per_cycle:cfg.Config.dram_bytes_per_cycle
  in
  let l2_next ~cycle ~addr =
    ignore addr;
    Cache.Miss (Cache.Dram.request dram ~cycle ~bytes:cfg.Config.l1_line)
  in
  let l2 =
    Cache.create ~name:"L2" ~bytes:cfg.Config.l2_bytes ~assoc:cfg.Config.l2_assoc
      ~line:cfg.Config.l1_line ~mshrs:1024 ~hit_latency:cfg.Config.l2_latency
      ~next:l2_next
  in
  { l2; dram }

let shared_dram_bytes m = Cache.Dram.traffic_bytes m.dram
let shared_l2_stats m = Cache.stats m.l2

(* ---------- SM state ---------- *)

type mode =
  | M_live
  | M_record of Replay.t
  | M_replay of Replay.t

(* The LSU segment queue is a ring of parallel arrays (addresses as bit
   patterns in a float array; write/write_alloc/bypass packed into flag
   bits) so the steady state pushes and pops without allocating. The
   shared [pending_load option] is allocated once per load instruction,
   not per segment. *)
type t =
  { cfg : Config.t
  ; st : Stats.t
  ; lctx : Interp.launch_ctx
  ; code : Dcode.t
  ; mode : mode
  ; nwarps : int  (* warps per block *)
  ; shared : shared_memsys
  ; l1 : Cache.t
  ; remote : cycle:int -> addr:int64 -> Cache.result
  ; bypass_global : bool
  ; dynamic_tlp : bool
  ; mutable window_mem_stall : int
  ; mutable window_replays : int
  ; scheduler : [ `Gto | `Lrr ]
  ; next_block : unit -> int option
  ; pools : wstate array array
  ; mutable pools_dirty : bool
  ; mutable live_blocks : bstate list
  ; mutable lsu_addr : float array  (* segment address bit patterns *)
  ; mutable lsu_flags : int array  (* bit0 write, bit1 write_alloc, bit2 bypass *)
  ; mutable lsu_load : pending_load option array
  ; mutable lsu_head : int
  ; mutable lsu_len : int
  ; seg_buf : int array  (* coalescing scratch: line indices *)
  ; word_buf : int array  (* bank-conflict scratch: distinct words *)
  ; bank_counts : int array  (* per signed-mod bank class *)
  ; mutable active_blocks : int
  ; mutable dispenser_dry : bool
  ; mutable age_counter : int
  ; mutable now : int
  ; greedy : wstate option array
  }

let launch_block sm =
  if not sm.dispenser_dry then begin
    match sm.next_block () with
    | None -> sm.dispenser_dry <- true
    | Some ctaid ->
      sm.active_blocks <- sm.active_blocks + 1;
      sm.st.Stats.max_concurrent_blocks <-
        max sm.st.Stats.max_concurrent_blocks sm.active_blocks;
      let fronts =
        match sm.mode with
        | M_live | M_record _ ->
          let _bctx, warps =
            Interp.make_block sm.lctx ~ctaid ~warp_size:sm.cfg.Config.warp_size
          in
          List.map (fun w -> Live w) warps
        | M_replay tr ->
          List.init sm.nwarps (fun wid -> Cur (Replay.cursor tr ~ctaid ~wid))
      in
      let bs =
        { live_warps = List.length fronts
        ; at_barrier = 0
        ; warps = []
        ; paused = false
        ; seq = ctaid
        }
      in
      let nslots = max 1 (Dcode.num_slots sm.code) in
      bs.warps <-
        List.mapi
          (fun wid w ->
             sm.age_counter <- sm.age_counter + 1;
             { w
             ; tr =
                 (match sm.mode with
                  | M_record tr -> Some (Replay.wtrace tr ~ctaid ~wid)
                  | M_live | M_replay _ -> None)
             ; sb = Array.make nslots 0
             ; waiting_barrier = false
             ; bstate = bs
             ; age = sm.age_counter
             })
          fronts;
      sm.live_blocks <- sm.live_blocks @ [ bs ];
      sm.pools_dirty <- true
  end

let rebuild_pools sm =
  let total = sm.cfg.Config.num_schedulers in
  let all =
    List.concat_map
      (fun bs -> if bs.paused then [] else bs.warps)
      sm.live_blocks
  in
  let alive = List.filter (fun ws -> not (f_done ws.w)) all in
  for s = 0 to total - 1 do
    sm.pools.(s) <-
      Array.of_list (List.filter (fun ws -> f_wid ws.w mod total = s) alive)
  done;
  (* blocks are appended in launch order and warps in wid order, so the
     pools are already oldest-first *)
  sm.pools_dirty <- false

let create ?(scheduler = `Gto) ?(dynamic_tlp = false) ?(bypass_global = false)
    ?record ?replay (cfg : Config.t) shared ~next_block (l : Launch.t) =
  if l.Launch.warp_size <> cfg.Config.warp_size then
    invalid_arg "Sm.create: launch warp_size differs from the configuration's";
  let mode, image =
    match (record, replay) with
    | Some _, Some _ -> invalid_arg "Sm.create: record and replay are exclusive"
    | Some tr, None -> (M_record tr, Replay.image tr)
    | None, Some tr ->
      if
        Replay.block_size tr <> l.Launch.block_size
        || Replay.num_blocks tr <> l.Launch.num_blocks
        || Replay.warp_size tr <> l.Launch.warp_size
      then invalid_arg "Sm.create: replay trace does not match the launch";
      (M_replay tr, Replay.image tr)
    | None, None -> (M_live, Image.prepare l.Launch.kernel)
  in
  (* each SM owns its interconnect port; the L2 and DRAM behind it are
     shared between SMs *)
  let icnt =
    Cache.Dram.create ~latency:cfg.Config.l2_latency
      ~bytes_per_cycle:cfg.Config.icnt_bytes_per_cycle
  in
  let lctx = Simt.launch_ctx ~image l in
  let l1_next ~cycle ~addr =
    let t_icnt = Cache.Dram.request icnt ~cycle ~bytes:cfg.Config.l1_line in
    match Cache.access shared.l2 ~cycle ~addr ~write:false ~write_alloc:true with
    | Cache.Hit -> Cache.Miss t_icnt
    | Cache.Miss c -> Cache.Miss (max t_icnt c)
    | Cache.Reserve_fail -> Cache.Reserve_fail
  in
  let l1 =
    Cache.create ~name:"L1D" ~bytes:cfg.Config.l1_bytes ~assoc:cfg.Config.l1_assoc
      ~line:cfg.Config.l1_line ~mshrs:cfg.Config.l1_mshrs
      ~hit_latency:cfg.Config.l1_hit_latency ~next:l1_next
  in
  let lsu_cap = 128 (* > capacity + headroom slack + one warp's segments *) in
  let sm =
    { cfg
    ; st = Stats.create ()
    ; lctx
    ; code = image.Image.code
    ; mode
    ; nwarps = l.Launch.block_size / l.Launch.warp_size
    ; shared
    ; l1
    ; remote = l1_next
    ; bypass_global
    ; dynamic_tlp
    ; window_mem_stall = 0
    ; window_replays = 0
    ; scheduler
    ; next_block
    ; pools = Array.make cfg.Config.num_schedulers [||]
    ; pools_dirty = true
    ; live_blocks = []
    ; lsu_addr = Array.make lsu_cap 0.0
    ; lsu_flags = Array.make lsu_cap 0
    ; lsu_load = Array.make lsu_cap None
    ; lsu_head = 0
    ; lsu_len = 0
    ; seg_buf = Array.make cfg.Config.warp_size 0
    ; word_buf = Array.make cfg.Config.warp_size 0
    ; bank_counts = Array.make ((2 * cfg.Config.shared_banks) + 1) 0
    ; active_blocks = 0
    ; dispenser_dry = false
    ; age_counter = 0
    ; now = 0
    ; greedy = Array.make cfg.Config.num_schedulers None
    }
  in
  for _ = 1 to max 1 l.Launch.tlp_limit do
    launch_block sm
  done;
  sm

let busy sm = sm.active_blocks > 0 || not sm.dispenser_dry

(* ---------- LSU ring ---------- *)

let lsu_grow sm =
  let cap = Array.length sm.lsu_addr in
  let ncap = 2 * cap in
  let gaddr = Array.make ncap 0.0 in
  let gflags = Array.make ncap 0 in
  let gload = Array.make ncap None in
  for i = 0 to sm.lsu_len - 1 do
    let j = (sm.lsu_head + i) mod cap in
    gaddr.(i) <- sm.lsu_addr.(j);
    gflags.(i) <- sm.lsu_flags.(j);
    gload.(i) <- sm.lsu_load.(j)
  done;
  sm.lsu_addr <- gaddr;
  sm.lsu_flags <- gflags;
  sm.lsu_load <- gload;
  sm.lsu_head <- 0

let lsu_push sm addr ~write ~write_alloc ~bypass load =
  if sm.lsu_len = Array.length sm.lsu_addr then lsu_grow sm;
  let cap = Array.length sm.lsu_addr in
  let i = (sm.lsu_head + sm.lsu_len) mod cap in
  sm.lsu_addr.(i) <- Int64.float_of_bits addr;
  sm.lsu_flags.(i) <-
    (if write then 1 else 0)
    lor (if write_alloc then 2 else 0)
    lor (if bypass then 4 else 0);
  sm.lsu_load.(i) <- load;
  sm.lsu_len <- sm.lsu_len + 1

let lsu_pop sm =
  sm.lsu_load.(sm.lsu_head) <- None;
  sm.lsu_head <- (sm.lsu_head + 1) mod Array.length sm.lsu_addr;
  sm.lsu_len <- sm.lsu_len - 1

(* ---------- per-cycle machinery ---------- *)

let sb_ready sm ws pc =
  let now = sm.now in
  let sb = ws.sb in
  let ok slots =
    let n = Array.length slots in
    let rec loop i =
      i >= n
      || (Array.unsafe_get sb (Array.unsafe_get slots i) <= now && loop (i + 1))
    in
    loop 0
  in
  ok sm.code.Dcode.uses.(pc) && ok sm.code.Dcode.defs.(pc)

let set_pending ws slot ready = ws.sb.(slot) <- ready

let status sm ws : blocked =
  if f_done ws.w then Done
  else if ws.waiting_barrier then Barrier
  else begin
    let pc = f_fetch ws.w in
    if pc < 0 then Done
    else if not (sb_ready sm ws pc) then Scoreboard
    else if
      Array.unsafe_get sm.code.Dcode.is_gl_mem pc
      && sm.lsu_len + lsu_headroom > lsu_capacity
    then Mem_queue
    else Ready
  end

(* Coalescing: the warp's recorded lane addresses, reduced to the sorted
   set of distinct L1-line indices (in [seg_buf]; ascending, as the
   reference [List.sort_uniq] produced). Returns the segment count. *)
let coalesce sm (w : front) =
  let line = Int64.of_int sm.cfg.Config.l1_line in
  let n = f_mem_count w in
  let buf = sm.seg_buf in
  for i = 0 to n - 1 do
    buf.(i) <- Int64.to_int (Int64.div (f_mem_addr w i) line)
  done;
  for i = 1 to n - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) > x do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  let m = ref 0 in
  for i = 0 to n - 1 do
    if !m = 0 || buf.(i) <> buf.(!m - 1) then begin
      buf.(!m) <- buf.(i);
      incr m
    end
  done;
  !m

let release_barrier bs =
  if bs.at_barrier = bs.live_warps && bs.live_warps > 0 then begin
    bs.at_barrier <- 0;
    List.iter (fun ws -> ws.waiting_barrier <- false) bs.warps
  end

let finish_warp sm ws =
  let bs = ws.bstate in
  bs.live_warps <- bs.live_warps - 1;
  sm.pools_dirty <- true;
  if bs.live_warps = 0 then begin
    sm.st.Stats.blocks_completed <- sm.st.Stats.blocks_completed + 1;
    sm.active_blocks <- sm.active_blocks - 1;
    sm.live_blocks <- List.filter (fun b -> b != bs) sm.live_blocks;
    (* under dynamic throttling, resume a paused resident block before
       admitting a fresh one *)
    match List.find_opt (fun b -> b.paused) sm.live_blocks with
    | Some b ->
      b.paused <- false;
      sm.pools_dirty <- true
    | None -> launch_block sm
  end
  else release_barrier bs

(* Bank conflicts: lanes hitting the same bank with different word
   addresses serialise into multiple passes (same-word accesses
   broadcast for free). Degree = max distinct words on one bank — the
   bank of a word is its signed remainder, so counts index
   [bank + shared_banks] to keep negative classes distinct, as the
   reference Hashtbl keying did. *)
let bank_conflict_degree sm (w : front) =
  let n = f_mem_count w in
  let words = sm.word_buf in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let word = Int64.to_int (Int64.div (f_mem_addr w i) 4L) in
    let dup = ref false in
    for j = 0 to !m - 1 do
      if words.(j) = word then dup := true
    done;
    if not !dup then begin
      words.(!m) <- word;
      incr m
    end
  done;
  let banks = sm.cfg.Config.shared_banks in
  Array.fill sm.bank_counts 0 (Array.length sm.bank_counts) 0;
  let degree = ref 1 in
  for j = 0 to !m - 1 do
    let k = (words.(j) mod banks) + banks in
    let c = sm.bank_counts.(k) + 1 in
    sm.bank_counts.(k) <- c;
    if c > !degree then degree := c
  done;
  !degree

let issue sm ws =
  let st = sm.st in
  let cfg = sm.cfg in
  let mask = f_mask ws.w in
  let lanes = Interp.popcount mask in
  let pc = f_fetch ws.w in
  let defs = sm.code.Dcode.defs.(pc) in
  let exec = f_step ws.w in
  (* recording appends to flat arrays only — it cannot perturb timing *)
  (match ws.tr with
   | Some tr ->
     Replay.record tr ~pc ~mask;
     (match (exec, ws.w) with
      | Interp.E_mem _, Live w ->
        let n = Interp.mem_count w in
        for i = 0 to n - 1 do
          Replay.record_addr tr (Interp.mem_addr w i)
        done
      | _ -> ())
   | None -> ());
  st.Stats.warp_instrs <- st.Stats.warp_instrs + 1;
  st.Stats.thread_instrs <- st.Stats.thread_instrs + lanes;
  match exec with
  | Interp.E_alu cls ->
    (match cls with
     | Ptx.Instr.Sfu -> st.Stats.sfu_instrs <- st.Stats.sfu_instrs + 1
     | Ptx.Instr.Alu | Ptx.Instr.Alu_heavy | Ptx.Instr.Ctrl
     | Ptx.Instr.Mem_const_param | Ptx.Instr.Mem_global | Ptx.Instr.Mem_local
     | Ptx.Instr.Mem_shared | Ptx.Instr.Barrier ->
       st.Stats.alu_instrs <- st.Stats.alu_instrs + 1);
    let ready = sm.now + Config.latency cfg cls in
    for i = 0 to Array.length defs - 1 do
      set_pending ws defs.(i) ready
    done
  | Interp.E_mem { space = Ptx.Types.Shared; write; _ } ->
    let n = f_mem_count ws.w in
    let degree = bank_conflict_degree sm ws.w in
    st.Stats.shared_bank_conflicts <-
      st.Stats.shared_bank_conflicts + (degree - 1);
    if write then st.Stats.shared_store_lanes <- st.Stats.shared_store_lanes + n
    else begin
      st.Stats.shared_load_lanes <- st.Stats.shared_load_lanes + n;
      let ready = sm.now + cfg.Config.shared_latency + (2 * (degree - 1)) in
      for i = 0 to Array.length defs - 1 do
        set_pending ws defs.(i) ready
      done
    end
  | Interp.E_mem { space; write; _ } ->
    let local = Ptx.Types.equal_space space Ptx.Types.Local in
    let n = f_mem_count ws.w in
    (match (local, write) with
     | true, true -> st.Stats.local_store_lanes <- st.Stats.local_store_lanes + n
     | true, false -> st.Stats.local_load_lanes <- st.Stats.local_load_lanes + n
     | false, true -> st.Stats.global_store_lanes <- st.Stats.global_store_lanes + n
     | false, false -> st.Stats.global_load_lanes <- st.Stats.global_load_lanes + n);
    let nsegs = coalesce sm ws.w in
    if local then st.Stats.local_segments <- st.Stats.local_segments + nsegs
    else st.Stats.global_segments <- st.Stats.global_segments + nsegs;
    let bypass = sm.bypass_global && not local in
    let line = Int64.of_int cfg.Config.l1_line in
    if write then
      for i = 0 to nsegs - 1 do
        let a = Int64.mul (Int64.of_int sm.seg_buf.(i)) line in
        lsu_push sm a ~write:true ~write_alloc:local ~bypass None
      done
    else begin
      let pl = Some { defs; wslot = ws; remaining = nsegs; ready_at = 0 } in
      for i = 0 to Array.length defs - 1 do
        set_pending ws defs.(i) infinity_cycle
      done;
      for i = 0 to nsegs - 1 do
        let a = Int64.mul (Int64.of_int sm.seg_buf.(i)) line in
        lsu_push sm a ~write:false ~write_alloc:true ~bypass pl
      done
    end
  | Interp.E_barrier ->
    ws.waiting_barrier <- true;
    let bs = ws.bstate in
    bs.at_barrier <- bs.at_barrier + 1;
    release_barrier bs
  | Interp.E_exit -> finish_warp sm ws

let service_lsu sm =
  let ports = ref sm.cfg.Config.l1_ports in
  let blocked = ref false in
  while (not !blocked) && !ports > 0 && sm.lsu_len > 0 do
    let h = sm.lsu_head in
    let addr = Int64.bits_of_float sm.lsu_addr.(h) in
    let flags = sm.lsu_flags.(h) in
    let outcome =
      if flags land 4 <> 0 then sm.remote ~cycle:sm.now ~addr
      else
        Cache.access sm.l1 ~cycle:sm.now ~addr ~write:(flags land 1 <> 0)
          ~write_alloc:(flags land 2 <> 0)
    in
    (match outcome with
     | (Cache.Hit | Cache.Miss _) as r ->
       let load = sm.lsu_load.(h) in
       lsu_pop sm;
       (match load with
        | Some pl ->
          let c =
            match r with
            | Cache.Hit -> sm.now + sm.cfg.Config.l1_hit_latency
            | Cache.Miss c -> c
            | Cache.Reserve_fail -> assert false
          in
          pl.ready_at <- max pl.ready_at c;
          pl.remaining <- pl.remaining - 1;
          if pl.remaining = 0 then
            for i = 0 to Array.length pl.defs - 1 do
              set_pending pl.wslot pl.defs.(i) pl.ready_at
            done
        | None -> ())
     | Cache.Reserve_fail ->
       sm.st.Stats.lsu_replay_cycles <- sm.st.Stats.lsu_replay_cycles + 1;
       blocked := true);
    decr ports
  done

let schedulers_issue sm =
  let total = sm.cfg.Config.num_schedulers in
  for s = 0 to total - 1 do
    let pool = sm.pools.(s) in
    let n = Array.length pool in
    if n = 0 then sm.st.Stats.stall_idle <- sm.st.Stats.stall_idle + 1
    else begin
      let ready ws = status sm ws = Ready in
      let pick =
        match sm.scheduler with
        | `Gto ->
          let g_ok =
            match sm.greedy.(s) with
            | Some g when (not (f_done g.w)) && ready g -> Some g
            | Some _ | None -> None
          in
          (match g_ok with
           | Some g -> Some g
           | None ->
             let rec find i =
               if i >= n then None
               else if ready pool.(i) then Some pool.(i)
               else find (i + 1)
             in
             find 0)
        | `Lrr ->
          let start = sm.now mod n in
          let rec find k =
            if k >= n then None
            else
              let ws = pool.((start + k) mod n) in
              if ready ws then Some ws else find (k + 1)
          in
          find 0
      in
      match pick with
      | Some ws ->
        (match sm.greedy.(s) with
         | Some g when g == ws -> ()
         | Some _ | None -> sm.greedy.(s) <- Some ws);
        sm.st.Stats.issue_cycles <- sm.st.Stats.issue_cycles + 1;
        issue sm ws
      | None ->
        let has_mem = ref false and has_sb = ref false and has_bar = ref false in
        Array.iter
          (fun ws ->
             match status sm ws with
             | Mem_queue -> has_mem := true
             | Scoreboard -> has_sb := true
             | Barrier -> has_bar := true
             | Ready | Done -> ())
          pool;
        if !has_mem then
          sm.st.Stats.stall_mem_congestion <- sm.st.Stats.stall_mem_congestion + 1
        else if !has_sb then
          sm.st.Stats.stall_scoreboard <- sm.st.Stats.stall_scoreboard + 1
        else if !has_bar then
          sm.st.Stats.stall_barrier <- sm.st.Stats.stall_barrier + 1
        else sm.st.Stats.stall_idle <- sm.st.Stats.stall_idle + 1
    end
  done

(* DynCTA-style controller (Kayiran et al.): every window, compare the
   cache-congestion pressure against thresholds and pause the youngest
   block (or resume the oldest paused one). *)
let dynamic_window = 2048
let hi_threshold = 0.20
let lo_threshold = 0.05

let dynamic_adjust sm =
  let stalls =
    sm.st.Stats.stall_mem_congestion + sm.st.Stats.lsu_replay_cycles
  in
  let delta = stalls - (sm.window_mem_stall + sm.window_replays) in
  sm.window_mem_stall <- sm.st.Stats.stall_mem_congestion;
  sm.window_replays <- sm.st.Stats.lsu_replay_cycles;
  let frac = float_of_int delta /. float_of_int dynamic_window in
  let running = List.filter (fun b -> not b.paused) sm.live_blocks in
  if frac > hi_threshold && List.length running > 1 then begin
    (* pause the youngest running block *)
    match List.rev running with
    | newest :: _ ->
      newest.paused <- true;
      sm.pools_dirty <- true
    | [] -> ()
  end
  else if frac < lo_threshold then begin
    match List.find_opt (fun b -> b.paused) sm.live_blocks with
    | Some b ->
      b.paused <- false;
      sm.pools_dirty <- true
    | None -> ()
  end

let step sm =
  service_lsu sm;
  if sm.dynamic_tlp && sm.now > 0 && sm.now mod dynamic_window = 0 then
    dynamic_adjust sm;
  if sm.now > 0 && sm.now mod 256 = 0 then sm.pools_dirty <- true;
  if sm.pools_dirty then rebuild_pools sm;
  schedulers_issue sm;
  sm.now <- sm.now + 1

let stats sm = sm.st

let copy_cache_stats (src : Cache.stats) (dst : Cache.stats) =
  dst.Cache.reads <- src.Cache.reads;
  dst.Cache.read_hits <- src.Cache.read_hits;
  dst.Cache.writes <- src.Cache.writes;
  dst.Cache.write_hits <- src.Cache.write_hits;
  dst.Cache.reserve_fails <- src.Cache.reserve_fails;
  dst.Cache.writebacks <- src.Cache.writebacks;
  dst.Cache.fills <- src.Cache.fills

let finalize sm =
  sm.st.Stats.cycles <- sm.now;
  sm.st.Stats.dram_bytes <- Cache.Dram.traffic_bytes sm.shared.dram;
  copy_cache_stats (Cache.stats sm.l1) sm.st.Stats.l1;
  copy_cache_stats (Cache.stats sm.shared.l2) sm.st.Stats.l2;
  sm.st

let run ?(max_cycles = 40_000_000) ?scheduler ?bypass_global ?dynamic_tlp
    ?record ?replay (cfg : Config.t) (l : Launch.t) =
  let shared = make_shared cfg in
  let next = ref 0 in
  let next_block () =
    if !next >= l.Launch.num_blocks then None
    else begin
      let b = !next in
      incr next;
      Some b
    end
  in
  let sm =
    create ?scheduler ?dynamic_tlp ?bypass_global ?record ?replay cfg shared
      ~next_block l
  in
  while busy sm do
    if sm.now > max_cycles then begin
      ignore (finalize sm);
      raise (Cycle_limit sm.st)
    end;
    step sm
  done;
  finalize sm
