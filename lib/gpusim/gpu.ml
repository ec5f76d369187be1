type result =
  { per_sm : Stats.t array
  ; total_cycles : int
  ; dram_bytes : int
  ; l2 : Cache.stats
  }

exception Cycle_limit of result

let run ?sms ?(max_cycles = 40_000_000) ?scheduler (cfg : Config.t)
    (l : Launch.t) =
  let n_sms = Option.value ~default:cfg.Config.num_sms sms in
  let trace = Replay.create l in
  (* one instruction past what [max_cycles] can issue, the replay below
     hits the limit, so the truncated trace is all it needs *)
  let max_warp_instrs = ((max_cycles + 1) * cfg.Config.num_schedulers * n_sms) + 1 in
  (try ignore (Emulator.run ~record:trace ~max_warp_instrs l) with Simt.Over_budget -> ());
  let shared = Sm.make_shared cfg in
  let next = ref 0 in
  let next_block () =
    if !next >= l.Launch.num_blocks then None
    else begin
      let b = !next in
      incr next;
      Some b
    end
  in
  (* block ids are dispensed globally, so each block lands on exactly
     one SM and replays its part of the one trace exactly once *)
  let units =
    Array.init n_sms (fun _ -> Sm.create ?scheduler cfg shared ~next_block trace l)
  in
  let cycle = ref 0 in
  let mk_result () =
    { per_sm = Array.map Sm.finalize units
    ; total_cycles = !cycle
    ; dram_bytes = Sm.shared_dram_bytes shared
    ; l2 = Sm.shared_l2_stats shared
    }
  in
  (* Per-cycle loop without per-cycle closures: a unit is stepped while
     its [running] flag holds, and the flag drops exactly when the unit
     goes idle ([Sm.busy] is monotone — the shared dispenser never
     refills a drained SM). Same step sequence as scanning [Sm.busy]
     every cycle, minus the allocation. *)
  let n = Array.length units in
  let running = Array.make n false in
  let n_running = ref 0 in
  for i = 0 to n - 1 do
    if Sm.busy units.(i) then begin
      running.(i) <- true;
      incr n_running
    end
  done;
  while !n_running > 0 do
    if !cycle > max_cycles then raise (Cycle_limit (mk_result ()));
    for i = 0 to n - 1 do
      if running.(i) then begin
        let u = units.(i) in
        Sm.step u;
        if not (Sm.busy u) then begin
          running.(i) <- false;
          decr n_running
        end
      end
    done;
    incr cycle
  done;
  mk_result ()

let aggregate_ipc r =
  if r.total_cycles = 0 then 0.
  else
    float_of_int
      (Array.fold_left (fun acc s -> acc + s.Stats.warp_instrs) 0 r.per_sm)
    /. float_of_int r.total_cycles
