exception Cycle_limit of Stats.t

(* Every warp slot reads its instructions from a {!Replay} cursor: the
   timing machinery below sees only the pc, the active mask, the step
   outcome and the lane addresses of each issued instruction. *)

(* an in-flight load: registers become ready when all segments return *)
type pending_load =
  { defs : int array  (** scoreboard slots (shared with Dcode, read-only) *)
  ; wslot : wstate
  ; mutable remaining : int
  ; mutable ready_at : int
  }

and wstate =
  { w : Replay.cursor
  ; sb : int array  (** scoreboard: register slot -> ready cycle *)
  ; mutable wake : int
      (** the max of [sb] over the next pc's uses and defs: the first
          cycle the scoreboard lets it issue *)
  ; mutable flags : int  (** [f_done], [f_bar] and [f_mem] bits *)
  ; sched : int  (** the scheduler whose pool holds it *)
  ; mutable slot : int  (** its index in that pool; -1 outside it *)
  ; bstate : bstate
  }

and bstate =
  { mutable live_warps : int
  ; mutable at_barrier : int
  ; mutable warps : wstate list
  ; mutable paused : bool
      (** dynamic throttling: a paused block's warps are not scheduled *)
  }

(* A scheduler's pool, oldest warp first, with each warp's [wake] and
   [flags] copied into flat arrays so the scheduler pass reads nothing
   else; [publish] keeps the copies equal to the warps' fields. *)
type pool =
  { pwarps : wstate array
  ; pwake : int array
  ; pflags : int array
  }

let empty_pool = { pwarps = [||]; pwake = [||]; pflags = [||] }

(* [flags] bits: the cursor is exhausted; the warp waits at a barrier;
   its next instruction takes the global-memory LSU path *)
let f_done = 1
let f_bar = 2
let f_mem = 4

let infinity_cycle = max_int / 2

(* the schedulers' pools are rebuilt at least this often *)
let rebuild_period = 256

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
  let l2_next ~cycle ~lineno:_ =
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

(* The LSU segment queue is a ring of parallel arrays (L1 line numbers;
   write/write_alloc/bypass packed into flag bits) so the steady state
   pushes and pops without allocating. The shared [pending_load option]
   is allocated once per load instruction, not per segment. *)
type t =
  { cfg : Config.t
  ; st : Stats.t
  ; trace : Replay.t
  ; code : Dcode.t
  ; nwarps : int  (* warps per block *)
  ; shared : shared_memsys
  ; l1 : Cache.t
  ; remote : cycle:int -> lineno:int -> Cache.result
  ; bypass_global : bool
  ; dynamic_tlp : bool
  ; mutable window_mem_stall : int
  ; mutable window_replays : int
  ; scheduler : [ `Gto | `Lrr ]
  ; next_block : unit -> int option
  ; pools : pool array
  ; mutable pools_dirty : bool
  ; mutable live_blocks : bstate list
  ; mutable lsu_line : int array  (* segment line numbers *)
  ; mutable lsu_flags : int array  (* bit0 write, bit1 write_alloc, bit2 bypass *)
  ; mutable lsu_load : pending_load option array
  ; mutable lsu_head : int
  ; mutable lsu_len : int
  ; lanes : Coalescer.t  (* the issuing access's lane addresses *)
  ; mutable active_blocks : int
  ; mutable dispenser_dry : bool
  ; mutable now : int
  ; mutable wake_min : int
      (* the earliest [wake] among the warps the last cycle found
         blocked on the scoreboard *)
  ; greedy : wstate option array
  }

(* The [flags] of a warp whose next pc is [pc] (-1 once its cursor is
   exhausted), keeping the barrier bit [bar]. *)
let flags_at sm pc bar =
  if pc < 0 then f_done
  else bar lor if Array.unsafe_get sm.code.Dcode.is_gl_mem pc then f_mem else 0

let launch_block sm =
  if not sm.dispenser_dry then begin
    match sm.next_block () with
    | None -> sm.dispenser_dry <- true
    | Some ctaid ->
      sm.active_blocks <- sm.active_blocks + 1;
      sm.st.Stats.max_concurrent_blocks <-
        max sm.st.Stats.max_concurrent_blocks sm.active_blocks;
      let bs =
        { live_warps = sm.nwarps
        ; at_barrier = 0
        ; warps = []
        ; paused = false
        }
      in
      let nslots = max 1 (Dcode.num_slots sm.code) in
      bs.warps <-
        List.init sm.nwarps (fun wid ->
          let w = Replay.cursor sm.trace ~ctaid ~wid in
          { w
          ; sb = Array.make nslots 0
          ; wake = 0
          ; flags = flags_at sm (Replay.fetch w) 0
          ; sched = wid mod sm.cfg.Config.num_schedulers
          ; slot = -1
          ; bstate = bs
          });
      sm.live_blocks <- sm.live_blocks @ [ bs ];
      sm.pools_dirty <- true
  end

let rebuild_pools sm =
  Array.iter (fun p -> Array.iter (fun ws -> ws.slot <- -1) p.pwarps) sm.pools;
  let alive =
    List.concat_map
      (fun bs ->
         if bs.paused then []
         else List.filter (fun ws -> ws.flags land f_done = 0) bs.warps)
      sm.live_blocks
  in
  for s = 0 to Array.length sm.pools - 1 do
    let pwarps = Array.of_list (List.filter (fun ws -> ws.sched = s) alive) in
    Array.iteri (fun i ws -> ws.slot <- i) pwarps;
    sm.pools.(s) <-
      { pwarps
      ; pwake = Array.map (fun ws -> ws.wake) pwarps
      ; pflags = Array.map (fun ws -> ws.flags) pwarps
      }
  done;
  (* blocks are appended in launch order and warps in wid order, so the
     pools are already oldest-first *)
  sm.pools_dirty <- false

let create ?(scheduler = `Gto) ?(dynamic_tlp = false) ?(bypass_global = false)
    (cfg : Config.t) shared ~next_block trace (l : Launch.t) =
  if l.Launch.warp_size <> cfg.Config.warp_size then
    invalid_arg "Sm.create: launch warp_size differs from the configuration's";
  if
    Replay.block_size trace <> l.Launch.block_size
    || Replay.num_blocks trace <> l.Launch.num_blocks
    || Replay.warp_size trace <> l.Launch.warp_size
  then invalid_arg "Sm.create: trace does not match the launch";
  (* each SM owns its interconnect port; the L2 and DRAM behind it are
     shared between SMs *)
  let icnt =
    Cache.Dram.create ~latency:cfg.Config.l2_latency
      ~bytes_per_cycle:cfg.Config.icnt_bytes_per_cycle
  in
  let l1_next ~cycle ~lineno =
    let t_icnt = Cache.Dram.request icnt ~cycle ~bytes:cfg.Config.l1_line in
    match Cache.access shared.l2 ~cycle ~lineno ~write:false ~write_alloc:true with
    | Cache.Hit -> Cache.Miss t_icnt
    | Cache.Miss c -> Cache.Miss (Int.max t_icnt c)
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
    ; trace
    ; code = (Replay.image trace).Image.code
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
    ; pools = Array.make cfg.Config.num_schedulers empty_pool
    ; pools_dirty = true
    ; live_blocks = []
    ; lsu_line = Array.make lsu_cap 0
    ; lsu_flags = Array.make lsu_cap 0
    ; lsu_load = Array.make lsu_cap None
    ; lsu_head = 0
    ; lsu_len = 0
    ; lanes =
        Coalescer.create ~lanes:cfg.Config.warp_size ~line:cfg.Config.l1_line
          ~banks:cfg.Config.shared_banks
    ; active_blocks = 0
    ; dispenser_dry = false
    ; now = 0
    ; wake_min = infinity_cycle
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
  let cap = Array.length sm.lsu_line in
  let ncap = 2 * cap in
  let gline = Array.make ncap 0 in
  let gflags = Array.make ncap 0 in
  let gload = Array.make ncap None in
  for i = 0 to sm.lsu_len - 1 do
    let j = (sm.lsu_head + i) mod cap in
    gline.(i) <- sm.lsu_line.(j);
    gflags.(i) <- sm.lsu_flags.(j);
    gload.(i) <- sm.lsu_load.(j)
  done;
  sm.lsu_line <- gline;
  sm.lsu_flags <- gflags;
  sm.lsu_load <- gload;
  sm.lsu_head <- 0

let lsu_push sm lineno ~write ~write_alloc ~bypass load =
  if sm.lsu_len = Array.length sm.lsu_line then lsu_grow sm;
  let cap = Array.length sm.lsu_line in
  let i = (sm.lsu_head + sm.lsu_len) mod cap in
  sm.lsu_line.(i) <- lineno;
  sm.lsu_flags.(i) <-
    (if write then 1 else 0)
    lor (if write_alloc then 2 else 0)
    lor (if bypass then 4 else 0);
  sm.lsu_load.(i) <- load;
  sm.lsu_len <- sm.lsu_len + 1

let lsu_pop sm =
  sm.lsu_load.(sm.lsu_head) <- None;
  sm.lsu_head <- (sm.lsu_head + 1) mod Array.length sm.lsu_line;
  sm.lsu_len <- sm.lsu_len - 1

(* ---------- per-cycle machinery ---------- *)

(* Copy a warp's [wake] and [flags] into its pool, if it is in one.
   Every change to either field is followed by this. *)
let publish sm ws =
  if ws.slot >= 0 then begin
    let p = Array.unsafe_get sm.pools ws.sched in
    Array.unsafe_set p.pwake ws.slot ws.wake;
    Array.unsafe_set p.pflags ws.slot ws.flags
  end

(* Recompute [ws.wake] and the pc-derived [flags] bits. The scoreboard
   changes only where an issue sets its defs or a load's last segment
   returns, and the pc only where an issue steps the cursor: both call
   this afterwards. *)
let rec latest sb slots i acc =
  if i >= Array.length slots then acc
  else begin
    let c = Array.unsafe_get sb (Array.unsafe_get slots i) in
    latest sb slots (i + 1) (if c > acc then c else acc)
  end

let refresh sm ws =
  let pc = Replay.fetch ws.w in
  if pc >= 0 then
    ws.wake <-
      latest ws.sb sm.code.Dcode.uses.(pc) 0
        (latest ws.sb sm.code.Dcode.defs.(pc) 0 0);
  ws.flags <- flags_at sm pc (ws.flags land f_bar);
  publish sm ws

let set_pending ws slot ready = ws.sb.(slot) <- ready

let lsu_congested sm = sm.lsu_len + lsu_headroom > lsu_capacity

(* The warp is not done, not at a barrier, past its wake time, and not
   held back by a congested LSU queue. *)
let can_issue sm ws =
  let f = ws.flags in
  f land (f_done lor f_bar) = 0
  && ws.wake <= sm.now
  && (f land f_mem = 0 || not (lsu_congested sm))

let release_barrier sm bs =
  if bs.at_barrier = bs.live_warps && bs.live_warps > 0 then begin
    bs.at_barrier <- 0;
    List.iter
      (fun ws ->
         ws.flags <- ws.flags land lnot f_bar;
         publish sm ws)
      bs.warps
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
  else release_barrier sm bs

(* Load the lane addresses of the access the warp just stepped over. *)
let load_lanes sm ws =
  let sc = sm.lanes in
  Coalescer.load sc (Replay.mem_bits ws.w) (Replay.mem_first ws.w)
    (Replay.mem_count ws.w);
  sc

let issue sm ws =
  let st = sm.st in
  let cfg = sm.cfg in
  let lanes = Dcode.popcount (Replay.active_mask ws.w) in
  let defs = sm.code.Dcode.defs.(Replay.fetch ws.w) in
  let exec = Replay.step ws.w in
  st.Stats.warp_instrs <- st.Stats.warp_instrs + 1;
  st.Stats.thread_instrs <- st.Stats.thread_instrs + lanes;
  match exec with
  | Dcode.E_alu cls ->
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
  | Dcode.E_mem { space = Ptx.Types.Shared; write; _ } ->
    let sc = load_lanes sm ws in
    let n = Replay.mem_count ws.w in
    let degree = Coalescer.bank_degree sc in
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
  | Dcode.E_mem { space; write; _ } ->
    let local = Ptx.Types.equal_space space Ptx.Types.Local in
    let sc = load_lanes sm ws in
    let n = Replay.mem_count ws.w in
    (match (local, write) with
     | true, true -> st.Stats.local_store_lanes <- st.Stats.local_store_lanes + n
     | true, false -> st.Stats.local_load_lanes <- st.Stats.local_load_lanes + n
     | false, true -> st.Stats.global_store_lanes <- st.Stats.global_store_lanes + n
     | false, false -> st.Stats.global_load_lanes <- st.Stats.global_load_lanes + n);
    let nsegs = Coalescer.segments sc in
    if local then st.Stats.local_segments <- st.Stats.local_segments + nsegs
    else st.Stats.global_segments <- st.Stats.global_segments + nsegs;
    let bypass = sm.bypass_global && not local in
    if write then
      for i = 0 to nsegs - 1 do
        lsu_push sm (Coalescer.segment sc i) ~write:true ~write_alloc:local ~bypass None
      done
    else begin
      let pl = Some { defs; wslot = ws; remaining = nsegs; ready_at = 0 } in
      for i = 0 to Array.length defs - 1 do
        set_pending ws defs.(i) infinity_cycle
      done;
      for i = 0 to nsegs - 1 do
        lsu_push sm (Coalescer.segment sc i) ~write:false ~write_alloc:true ~bypass pl
      done
    end
  | Dcode.E_barrier ->
    ws.flags <- ws.flags lor f_bar;
    let bs = ws.bstate in
    bs.at_barrier <- bs.at_barrier + 1;
    release_barrier sm bs
  | Dcode.E_exit -> finish_warp sm ws

(* The LSU head would take an L1 MSHR on a miss: it neither bypasses
   the L1 nor is a write-through (write, no-allocate) store. *)
let head_allocates sm =
  let f = sm.lsu_flags.(sm.lsu_head) in
  f land 4 = 0 && (f land 1 = 0 || f land 2 <> 0)

let service_lsu sm =
  let ports = ref sm.cfg.Config.l1_ports in
  let blocked = ref false in
  while (not !blocked) && !ports > 0 && sm.lsu_len > 0 do
    let h = sm.lsu_head in
    let lineno = sm.lsu_line.(h) in
    let flags = sm.lsu_flags.(h) in
    let outcome =
      if flags land 4 <> 0 then sm.remote ~cycle:sm.now ~lineno
      else
        Cache.access sm.l1 ~cycle:sm.now ~lineno ~write:(flags land 1 <> 0)
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
          pl.ready_at <- Int.max pl.ready_at c;
          pl.remaining <- pl.remaining - 1;
          if pl.remaining = 0 then begin
            for i = 0 to Array.length pl.defs - 1 do
              set_pending pl.wslot pl.defs.(i) pl.ready_at
            done;
            refresh sm pl.wslot
          end
        | None -> ())
     | Cache.Reserve_fail ->
       sm.st.Stats.lsu_replay_cycles <- sm.st.Stats.lsu_replay_cycles + 1;
       blocked := true);
    decr ports
  done

(* One pass per scheduler: the first ready warp issues (GTO: the
   greedy warp, else the oldest; LRR: rotating from [now mod n]). The
   same pass over the pool's flat arrays ORs in [seen] why each warp it
   passed over is blocked and folds scoreboard waits into
   [sm.wake_min], so a scheduler that issues nothing has looked at each
   warp once. *)

let seen_mem = 1
let seen_sb = 2
let seen_bar = 4

let issue_on sm s ws =
  (match sm.greedy.(s) with
   | Some g when g == ws -> ()
   | Some _ | None -> sm.greedy.(s) <- Some ws);
  sm.st.Stats.issue_cycles <- sm.st.Stats.issue_cycles + 1;
  issue sm ws;
  refresh sm ws

let issue_from_pool sm s first =
  let p = sm.pools.(s) in
  let wake = p.pwake and flags = p.pflags in
  let n = Array.length flags in
  let now = sm.now in
  let congested = lsu_congested sm in
  let seen = ref 0 and wake_min = ref sm.wake_min in
  let found = ref (-1) and k = ref 0 in
  while !found < 0 && !k < n do
    let i = first + !k in
    let i = if i >= n then i - n else i in
    let f = Array.unsafe_get flags i in
    if f land f_done = 0 then begin
      if f land f_bar <> 0 then seen := !seen lor seen_bar
      else begin
        let w = Array.unsafe_get wake i in
        if w > now then begin
          seen := !seen lor seen_sb;
          if w < !wake_min then wake_min := w
        end
        else if congested && f land f_mem <> 0 then seen := !seen lor seen_mem
        else found := i
      end
    end;
    incr k
  done;
  sm.wake_min <- !wake_min;
  if !found >= 0 then issue_on sm s (Array.unsafe_get p.pwarps !found)
  else begin
    let st = sm.st in
    if !seen land seen_mem <> 0 then
      st.Stats.stall_mem_congestion <- st.Stats.stall_mem_congestion + 1
    else if !seen land seen_sb <> 0 then
      st.Stats.stall_scoreboard <- st.Stats.stall_scoreboard + 1
    else if !seen land seen_bar <> 0 then
      st.Stats.stall_barrier <- st.Stats.stall_barrier + 1
    else st.Stats.stall_idle <- st.Stats.stall_idle + 1
  end

let schedulers_issue sm =
  sm.wake_min <- infinity_cycle;
  for s = 0 to sm.cfg.Config.num_schedulers - 1 do
    let n = Array.length sm.pools.(s).pwarps in
    if n = 0 then sm.st.Stats.stall_idle <- sm.st.Stats.stall_idle + 1
    else
      match sm.scheduler with
      | `Gto ->
        (match sm.greedy.(s) with
         | Some g when (not g.bstate.paused) && can_issue sm g -> issue_on sm s g
         | Some _ | None -> issue_from_pool sm s 0)
      | `Lrr -> issue_from_pool sm s (sm.now mod n)
  done

(* DynCTA-style controller (Kayiran et al.): every window, compare the
   cache-congestion pressure against thresholds and pause the youngest
   block (or resume the oldest paused one). *)
let dynamic_window = 8 * rebuild_period
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
  if sm.now > 0 && sm.now mod rebuild_period = 0 then sm.pools_dirty <- true;
  if sm.pools_dirty then rebuild_pools sm;
  schedulers_issue sm;
  sm.now <- sm.now + 1

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
  let trace =
    match (record, replay) with
    | Some _, Some _ -> invalid_arg "Sm.run: record and replay are exclusive"
    | None, Some tr -> tr
    | record, None ->
      let tr = match record with Some tr -> tr | None -> Replay.create l in
      (* one instruction more than [max_cycles] can issue: the replay
         below is bound to hit the limit, so stop recording *)
      let max_warp_instrs = ((max_cycles + 1) * cfg.Config.num_schedulers) + 1 in
      (try ignore (Emulator.run ~record:tr ~max_warp_instrs l) with Simt.Over_budget -> ());
      tr
  in
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
    create ?scheduler ?dynamic_tlp ?bypass_global cfg shared ~next_block trace l
  in
  let st = sm.st in
  let l1_stats = Cache.stats sm.l1 in
  while busy sm do
    if sm.now > max_cycles then begin
      ignore (finalize sm);
      raise (Cycle_limit sm.st)
    end;
    let issued = st.Stats.issue_cycles
    and replays = st.Stats.lsu_replay_cycles
    and sb = st.Stats.stall_scoreboard
    and mem = st.Stats.stall_mem_congestion
    and bar = st.Stats.stall_barrier
    and idle = st.Stats.stall_idle in
    step sm;
    (* A cycle that issued nothing repeats itself, stall for stall,
       until a blocked warp's wake time, the next pool rebuild (which
       every controller window boundary is) or the cycle limit, as
       long as the LSU cannot move either: it is empty, or its head
       allocates an L1 line and was refused for a full MSHR file, and
       will be refused again each cycle until the earliest fill
       completes. Such a retry touches nothing but the L1's
       [reserve_fails]. A bypassing or write-through head's retry
       reaches the next level, so it never jumps. Charge those cycles
       in bulk and jump. *)
    if st.Stats.issue_cycles = issued && not sm.pools_dirty then begin
      let lsu_until =
        if sm.lsu_len = 0 then infinity_cycle
        else if st.Stats.lsu_replay_cycles > replays && head_allocates sm then
          Cache.mshrs_free_at sm.l1
        else sm.now
      in
      let next_rebuild =
        (sm.now + rebuild_period - 1) / rebuild_period * rebuild_period
      in
      let target =
        Int.min (Int.min sm.wake_min next_rebuild) (Int.min (max_cycles + 1) lsu_until)
      in
      let span = target - sm.now in
      if span > 0 then begin
        let again before now = now + (span * (now - before)) in
        st.Stats.stall_scoreboard <- again sb st.Stats.stall_scoreboard;
        st.Stats.stall_mem_congestion <- again mem st.Stats.stall_mem_congestion;
        st.Stats.stall_barrier <- again bar st.Stats.stall_barrier;
        st.Stats.stall_idle <- again idle st.Stats.stall_idle;
        if sm.lsu_len > 0 then begin
          st.Stats.lsu_replay_cycles <- st.Stats.lsu_replay_cycles + span;
          l1_stats.Cache.reserve_fails <- l1_stats.Cache.reserve_fails + span
        end;
        sm.now <- target
      end
    end
  done;
  finalize sm
