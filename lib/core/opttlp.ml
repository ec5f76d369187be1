type profile_result =
  { opt_tlp : int
  ; samples : (int * int) list
  }

let profile engine cfg (app : Workloads.App.t) ?input ?kernel ~max_tlp () =
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
    Engine.simulate_batch engine
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

(* [Stdlib.max], at type float *)
let fmax (a : float) b = if a >= b then a else b

(* The GTO-mimicking analytical scheduler over one wave of [tlp] blocks.
   One warp's compute occupies the issue pipeline; memory segments
   overlap, paying a latency that grows with cache contention (working
   sets beyond L1 lose their reuse) and with DRAM bandwidth queueing.

   A [model] holds one trace, flattened once per estimate, the costs of
   its memory segments at the current TLP ([set_tlp]) and the
   scheduler's state, sized for the largest TLP of the ladder. Segment
   [i] is a computation segment when [svc.(i) < 0.], else a memory
   segment of [cost.(i)] lines. *)
type model =
  { cfg : Gpusim.Config.t
  ; tr : Segments.trace
  ; wpb : int
  ; cost : float array  (** issue-pipeline cycles: latency, or one per line *)
  ; sum_cost : float
  ; lat : float array  (** at the current TLP: a memory segment's latency *)
  ; svc : float array  (** ... and its DRAM server time; [-1.] for compute *)
  ; idx : int array  (** per warp: its next segment *)
  ; ready : float array  (** per warp: when its last segment completes *)
  ; bits : int array  (** the ready warps, 32 per word *)
  ; wkey : float array
        (** the waiting warps' ready times, sorted, in a ring of a power
            of two at least the number of warps *)
  ; wid : int array  (** ... and their warp numbers *)
  }

let model cfg (tr : Segments.trace) ~warps_per_block ~max_tlp =
  let segs = Array.of_list tr.Segments.segments in
  let nseg = Array.length segs in
  let cost =
    Array.map (function Segments.Compute l | Segments.Mem l -> float_of_int l) segs
  in
  let nwarps = max 1 max_tlp * warps_per_block in
  let ring = ref 1 in
  while !ring < nwarps do
    ring := 2 * !ring
  done;
  { cfg
  ; tr
  ; wpb = warps_per_block
  ; cost
  ; sum_cost = Array.fold_left ( +. ) 0. cost
  ; lat = Array.make nseg 0.
  ; svc = Array.map (function Segments.Compute _ -> -1. | Segments.Mem _ -> 0.) segs
  ; idx = Array.make nwarps 0
  ; ready = Array.make nwarps 0.
  ; bits = Array.make ((nwarps + 31) lsr 5) 0
  ; wkey = Array.make !ring 0.
  ; wid = Array.make !ring 0
  }

(* [lower_bound]'s relative slack: it dominates the rounding of the
   float sums on both sides (under 1e-10 for a million scheduler steps) *)
let bound_slack = 1e-6

(* Prices the memory segments at [tlp] and returns the lower bound on
   the cycles of the wave: the issue pipeline runs every segment of
   every warp, the DRAM server serves every miss of every warp, and one
   warp's segments run one after the other. *)
let set_tlp m ~tlp =
  let cfg = m.cfg in
  let nwarps = tlp * m.wpb in
  let block_fp = m.tr.Segments.footprint_bytes * m.wpb in
  let concurrent = float_of_int (tlp * block_fp) in
  let cap_ratio =
    if concurrent <= 0. then 1.
    else min 1. (float_of_int cfg.Gpusim.Config.l1_bytes /. concurrent)
  in
  (* convex penalty: once the concurrent working set spills out of the
     L1, LRU destroys most pass-distance reuse, not a pro-rata share *)
  let hit = m.tr.Segments.reuse_ratio *. (cap_ratio ** 2.) in
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
  let sum_lat = ref 0. and sum_svc = ref 0. in
  for i = 0 to Array.length m.cost - 1 do
    if m.svc.(i) >= 0. then begin
      let l = m.cost.(i) in
      let lat =
        (hit *. float_of_int cfg.Gpusim.Config.l1_hit_latency)
        +. ((1. -. hit) *. (miss_lat +. (l *. line_service)))
      in
      let misses = l *. (1. -. hit) in
      let svc = misses *. line_service in
      m.lat.(i) <- lat;
      m.svc.(i) <- svc;
      sum_lat := !sum_lat +. lat;
      sum_svc := !sum_svc +. svc
    end
  done;
  if nwarps = 0 then 0.
  else begin
    let n = float_of_int nwarps in
    fmax (fmax (n *. m.sum_cost) (n *. !sum_svc)) (m.sum_cost +. !sum_lat)
    *. (1. -. bound_slack)
  end

(* the index of the lowest set bit of a word, by de Bruijn multiplication *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8
   ; 31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9
  |]

let[@inline] lowest_bit x = debruijn.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* The cycles of one wave of [tlp] blocks after [set_tlp m ~tlp], or
   [infinity] once [max core server_free / tlp > limit] proves that the
   per-block cost exceeds [limit]: both clocks only grow, and the final
   time is at least both.

   The ready warps (segments left, ready time <= [core]) are the set bits
   of [bits]; the lowest is the lowest-numbered ready warp. Every other
   unfinished warp waits once in the [wkey]/[wid] ring, sorted by ready
   time from [head]. [core] only grows, so a waiting warp turns ready
   once and stays ready until it is picked, and only the ring's minimum
   matters: the order in which it releases warps into the set does not.
   A new ready time is [core] plus a latency, or the DRAM server's
   time, and both clocks only grow, so an insertion from the tail
   seldom moves far. *)
let run m ~tlp ~limit =
  let nseg = Array.length m.cost in
  let nwarps = tlp * m.wpb in
  if nseg = 0 || nwarps = 0 then 0.
  else begin
    let cost = m.cost and lat = m.lat and svc = m.svc in
    let idx = m.idx and ready = m.ready and bits = m.bits in
    let wkey = m.wkey and wid = m.wid in
    let nwords = (nwarps + 31) lsr 5 in
    Array.fill idx 0 nwarps 0;
    Array.fill ready 0 nwarps 0.;
    Array.fill bits 0 nwords 0xFFFFFFFF;
    if nwarps land 31 <> 0 then bits.(nwords - 1) <- (1 lsl (nwarps land 31)) - 1;
    let head = ref 0 and size = ref 0 in
    let mask = Array.length wkey - 1 in
    (* the issue pipeline's and the DRAM server's clocks *)
    let core = ref 0. and server_free = ref 0. in
    let ftlp = float_of_int tlp in
    let last = ref 0 in
    let remaining = ref nwarps in
    while !remaining > 0 do
      if fmax !core !server_free /. ftlp > limit then remaining := -1
      else begin
        (* candidate: greedy warp if ready, else oldest ready warp *)
        let w =
          if bits.(!last lsr 5) land (1 lsl (!last land 31)) <> 0 then !last
          else begin
            let k = ref 0 in
            while !k < nwords && bits.(!k) = 0 do incr k done;
            if !k < nwords then (!k lsl 5) lor lowest_bit bits.(!k) else -1
          end
        in
        if w < 0 then
          (* advance time to the next warp completion: the ring is not
             empty, since every unfinished warp is ready or waiting *)
          core := wkey.(!head land mask)
        else begin
          last := w;
          let i = idx.(w) in
          core := !core +. cost.(i);
          (if svc.(i) < 0. then ready.(w) <- !core
           else begin
             server_free := fmax !server_free !core +. svc.(i);
             ready.(w) <- fmax (!core +. lat.(i)) !server_free
           end);
          idx.(w) <- i + 1;
          if i + 1 >= nseg || ready.(w) > !core then begin
            bits.(w lsr 5) <- bits.(w lsr 5) land lnot (1 lsl (w land 31));
            if i + 1 >= nseg then decr remaining
            else begin
              (* insert [w] into the waiting ring, from its tail *)
              let key = ready.(w) in
              let j = ref (!head + !size) in
              while !j > !head && key < wkey.((!j - 1) land mask) do
                wkey.(!j land mask) <- wkey.((!j - 1) land mask);
                wid.(!j land mask) <- wid.((!j - 1) land mask);
                decr j
              done;
              wkey.(!j land mask) <- key;
              wid.(!j land mask) <- w;
              incr size
            end
          end
        end;
        (* release every waiting warp whose ready time has come *)
        while !size > 0 && wkey.(!head land mask) <= !core do
          let v = wid.(!head land mask) in
          bits.(v lsr 5) <- bits.(v lsr 5) lor (1 lsl (v land 31));
          incr head;
          decr size
        done
      end
    done;
    if !remaining < 0 then infinity
    else begin
      let finish = ref !core in
      for w = 0 to nwarps - 1 do
        finish := fmax !finish ready.(w)
      done;
      !finish
    end
  end

let mimic_cycles cfg tr ~warps_per_block ~tlp =
  let m = model cfg tr ~warps_per_block ~max_tlp:tlp in
  ignore (set_tlp m ~tlp);
  run m ~tlp ~limit:infinity

let lower_bound cfg tr ~warps_per_block ~tlp =
  set_tlp (model cfg tr ~warps_per_block ~max_tlp:tlp) ~tlp

(* prefer the higher TLP on near-ties: when the model sees a flat
   region, extra parallelism hides latencies it cannot express *)
let near_tie = 1.002

let estimate_static cfg (app : Workloads.App.t) ?input ~max_tlp () =
  let input =
    match input with
    | Some i -> i
    | None -> Workloads.App.default_input app
  in
  let tr = Segments.trace cfg app input in
  let wpb = app.Workloads.App.block_size / cfg.Gpusim.Config.warp_size in
  let m = model cfg tr ~warps_per_block:wpb ~max_tlp in
  let best = ref 1 and best_cost = ref infinity in
  for tlp = 1 to max 1 max_tlp do
    (* a TLP whose per-block cost provably exceeds [limit] is neither
       chosen nor lowers [best_cost]: skip it on the bound, or stop its
       run once the clocks pass the limit *)
    let limit = !best_cost *. near_tie in
    let bound = set_tlp m ~tlp in
    let per_block =
      if bound /. float_of_int tlp > limit then infinity
      else run m ~tlp ~limit /. float_of_int tlp
    in
    if per_block <= limit then begin
      best := tlp;
      if per_block < !best_cost then best_cost := per_block
    end
  done;
  !best
