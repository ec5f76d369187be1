type profile_result =
  { opt_tlp : int
  ; samples : (int * int) list
  }

let profile engine cfg (app : Workloads.App.t) ?input ?kernel ?cache ~max_tlp () =
  let input =
    match input with
    | Some i -> i
    | None -> Workloads.App.default_input app
  in
  let kernel =
    match kernel with
    | Some k -> k
    | None ->
      (Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs)
        .Regalloc.Allocator.kernel
  in
  (* the whole TLP ladder is one independent frontier over ONE launch:
     submit it at once, so the engine records the trace on the first
     rung and replays the rest *)
  let launch = Workloads.App.launch app ~kernel ~input () in
  let tlps = List.init (max 1 max_tlp) (fun i -> i + 1) in
  let stats =
    Engine.simulate_batch ?cache engine
      (List.map (fun tlp -> (launch, cfg, tlp)) tlps)
  in
  let samples =
    List.map2 (fun tlp st -> (tlp, st.Gpusim.Stats.cycles)) tlps stats
  in
  let opt_tlp, _ =
    List.fold_left
      (fun (bt, bc) (t, c) -> if c < bc then (t, c) else (bt, bc))
      (1, max_int) samples
  in
  { opt_tlp; samples }

(* Binary min-heaps of warp numbers, one pair of functions per order
   with the order written in: passed as a closure, every comparison
   would be an indirect call. [_lowest] orders by warp number;
   [_earliest] by ready time, then warp number. *)
type heap =
  { items : int array
  ; mutable size : int
  }

let push_lowest h (v : int) =
  let a = h.items in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && v < a.((!i - 1) / 2) do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- v

let pop_lowest h =
  let a = h.items in
  let top = a.(0) in
  h.size <- h.size - 1;
  let v = a.(h.size) and i = ref 0 and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    let c = if c + 1 < h.size && a.(c + 1) < a.(c) then c + 1 else c in
    if c < h.size && a.(c) < v then begin
      a.(!i) <- a.(c);
      i := c
    end
    else sifting := false
  done;
  a.(!i) <- v;
  top

let[@inline] earlier (ready : float array) a b =
  ready.(a) < ready.(b) || (ready.(a) = ready.(b) && a < b)

let push_earliest ready h v =
  let a = h.items in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && earlier ready v a.((!i - 1) / 2) do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- v

let pop_earliest ready h =
  let a = h.items in
  let top = a.(0) in
  h.size <- h.size - 1;
  let v = a.(h.size) and i = ref 0 and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    let c = if c + 1 < h.size && earlier ready a.(c + 1) a.(c) then c + 1 else c in
    if c < h.size && earlier ready a.(c) v then begin
      a.(!i) <- a.(c);
      i := c
    end
    else sifting := false
  done;
  a.(!i) <- v;
  top

(* [Stdlib.max], at type float *)
let fmax (a : float) b = if a >= b then a else b

(* the scheduler's clocks, unboxed: the issue pipeline and the DRAM server *)
type clocks =
  { mutable core : float
  ; mutable server_free : float
  }

(* GTO-mimicking analytical scheduler over one wave of [tlp] blocks.
   One warp's compute occupies the issue pipeline; memory segments
   overlap, paying a latency that grows with cache contention (working
   sets beyond L1 lose their reuse) and with DRAM bandwidth queueing. *)
let mimic_cycles (cfg : Gpusim.Config.t) (tr : Segments.trace) ~warps_per_block ~tlp =
  let segs = Array.of_list tr.Segments.segments in
  let nseg = Array.length segs in
  let nwarps = tlp * warps_per_block in
  if nseg = 0 || nwarps = 0 then 0.
  else begin
    let block_fp = tr.Segments.footprint_bytes * warps_per_block in
    let concurrent = float_of_int (tlp * block_fp) in
    let cap_ratio =
      if concurrent <= 0. then 1.
      else min 1. (float_of_int cfg.Gpusim.Config.l1_bytes /. concurrent)
    in
    (* convex penalty: once the concurrent working set spills out of the
       L1, LRU destroys most pass-distance reuse, not a pro-rata share *)
    let hit = tr.Segments.reuse_ratio *. (cap_ratio ** 2.) in
    let miss_lat = float_of_int (cfg.Gpusim.Config.l2_latency + (cfg.Gpusim.Config.dram_latency / 2)) in
    (* a miss line crosses the interconnect AND the DRAM pipe; under
       thrashing the queueing grows superlinearly (MSHR-limited replays),
       which the extra (1/cap) factor approximates *)
    let line_service =
      (float_of_int cfg.Gpusim.Config.l1_line
       /. float_of_int cfg.Gpusim.Config.dram_bytes_per_cycle)
      +. (float_of_int cfg.Gpusim.Config.l1_line
          /. float_of_int cfg.Gpusim.Config.icnt_bytes_per_cycle)
    in
    let line_service = line_service /. Float.max 0.6 cap_ratio in
    let avg_lat l =
      (hit *. float_of_int cfg.Gpusim.Config.l1_hit_latency)
      +. ((1. -. hit) *. (miss_lat +. (float_of_int l *. line_service)))
    in
    let idx = Array.make nwarps 0 in
    let ready = Array.make nwarps 0. in
    (* [is_ready.(w)]: warp [w] has segments left and [ready.(w) <= core].
       The ready warps sit in [ready_q], lowest number first; a warp
       leaves by clearing its flag, and its entry is dropped when it
       reaches the top still unflagged ([queued] keeps one entry per
       warp). Every other unfinished warp waits in [waiting], earliest
       ready time first. [core] only grows, so a waiting warp turns
       ready once and stays ready until it is picked. *)
    let is_ready = Array.make nwarps true and queued = Array.make nwarps true in
    let ready_q = { items = Array.init nwarps Fun.id; size = nwarps } in
    let waiting = { items = Array.make nwarps 0; size = 0 } in
    let t = { core = 0.; server_free = 0. } in
    let last = ref 0 in
    let remaining = ref nwarps in
    let wake () =
      while waiting.size > 0 && ready.(waiting.items.(0)) <= t.core do
        let w = pop_earliest ready waiting in
        is_ready.(w) <- true;
        if not queued.(w) then begin
          queued.(w) <- true;
          push_lowest ready_q w
        end
      done
    in
    let lowest_ready () =
      while ready_q.size > 0 && not is_ready.(ready_q.items.(0)) do
        queued.(pop_lowest ready_q) <- false
      done;
      if ready_q.size > 0 then ready_q.items.(0) else -1
    in
    while !remaining > 0 do
      (* candidate: greedy warp if ready, else oldest ready warp *)
      let w = if is_ready.(!last) then !last else lowest_ready () in
      if w < 0 then begin
        (* advance time to the next warp completion *)
        let next = if waiting.size > 0 then ready.(waiting.items.(0)) else infinity in
        if next = infinity then remaining := 0
        else begin
          t.core <- next;
          wake ()
        end
      end
      else begin
        last := w;
        (match segs.(idx.(w)) with
         | Segments.Compute lat ->
           t.core <- t.core +. float_of_int lat;
           ready.(w) <- t.core
         | Segments.Mem lines ->
           let issue = float_of_int lines in
           t.core <- t.core +. issue;
           let misses = float_of_int lines *. (1. -. hit) in
           let queue_start = fmax t.server_free t.core in
           t.server_free <- queue_start +. (misses *. line_service);
           ready.(w) <- fmax (t.core +. avg_lat lines) t.server_free);
        idx.(w) <- idx.(w) + 1;
        if idx.(w) >= nseg then begin
          is_ready.(w) <- false;
          decr remaining
        end
        else if ready.(w) > t.core then begin
          is_ready.(w) <- false;
          push_earliest ready waiting w
        end;
        wake ()
      end
    done;
    Array.fold_left fmax t.core ready
  end

let estimate_static cfg (app : Workloads.App.t) ?input ~max_tlp () =
  let input =
    match input with
    | Some i -> i
    | None -> Workloads.App.default_input app
  in
  let tr = Segments.trace cfg app input in
  let wpb = app.Workloads.App.block_size / cfg.Gpusim.Config.warp_size in
  let best = ref 1 and best_cost = ref infinity in
  for tlp = 1 to max 1 max_tlp do
    let t = mimic_cycles cfg tr ~warps_per_block:wpb ~tlp in
    let per_block = t /. float_of_int tlp in
    (* prefer the higher TLP on near-ties: when the model sees a flat
       region, extra parallelism hides latencies it cannot express *)
    if per_block <= !best_cost *. 1.002 then begin
      best := tlp;
      if per_block < !best_cost then best_cost := per_block
    end
  done;
  !best
