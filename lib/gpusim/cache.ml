type result =
  | Hit
  | Miss of int
  | Reserve_fail

type stats =
  { mutable reads : int
  ; mutable read_hits : int
  ; mutable writes : int
  ; mutable write_hits : int
  ; mutable reserve_fails : int
  ; mutable writebacks : int
  ; mutable fills : int
  }

let fresh_stats () =
  { reads = 0
  ; read_hits = 0
  ; writes = 0
  ; write_hits = 0
  ; reserve_fails = 0
  ; writebacks = 0
  ; fills = 0
  }

let read_hit_rate s =
  if s.reads = 0 then 1.0 else float_of_int s.read_hits /. float_of_int s.reads

module Dram = struct
  type t =
    { latency : int
    ; bytes_per_cycle : int
    ; mutable next_free : int
    ; mutable bytes : int
    }

  let create ~latency ~bytes_per_cycle =
    { latency; bytes_per_cycle; next_free = 0; bytes = 0 }

  let request t ~cycle ~bytes =
    let start = Int.max cycle t.next_free in
    let service = (bytes + t.bytes_per_cycle - 1) / t.bytes_per_cycle in
    t.next_free <- start + service;
    t.bytes <- t.bytes + bytes;
    start + service + t.latency

  let traffic_bytes t = t.bytes
end

type line =
  { mutable tag : int  (** the line number *)
  ; mutable valid : bool
  ; mutable valid_at : int  (** fill completion cycle (in-flight if > now) *)
  ; mutable last_use : int
  ; mutable dirty : bool
  }

type t =
  { name : string
  ; sets : line array array
  ; num_sets : int
  ; hit_latency : int
  ; next : cycle:int -> lineno:int -> result
  ; inflight : int array
      (** one slot per MSHR: completion cycles of outstanding fills, in
          [0 .. n_inflight-1] *)
  ; mutable n_inflight : int
  ; mutable first_done : int  (** the earliest of them; [max_int] if none *)
  ; st : stats
  }

let create ~name ~bytes ~assoc ~line ~mshrs ~hit_latency ~next =
  let num_sets = bytes / (assoc * line) in
  assert (num_sets > 0);
  let mk _ = { tag = -1; valid = false; valid_at = 0; last_use = 0; dirty = false } in
  { name
  ; sets = Array.init num_sets (fun _ -> Array.init assoc mk)
  ; num_sets
  ; hit_latency
  ; next
  ; inflight = Array.make mshrs 0
  ; n_inflight = 0
  ; first_done = max_int
  ; st = fresh_stats ()
  }

let stats t = t.st

let mshrs_free_at t =
  if t.n_inflight >= Array.length t.inflight then t.first_done else 0

(* Free the MSHRs whose fill has completed by [cycle]: compact the
   survivors in place, and only when one is due. *)
let purge_inflight t cycle =
  if t.first_done <= cycle then begin
    let a = t.inflight in
    let n = ref 0 and first = ref max_int in
    for i = 0 to t.n_inflight - 1 do
      let c = Array.unsafe_get a i in
      if c > cycle then begin
        Array.unsafe_set a !n c;
        incr n;
        if c < !first then first := c
      end
    done;
    t.n_inflight <- !n;
    t.first_done <- !first
  end

let add_inflight t c =
  t.inflight.(t.n_inflight) <- c;
  t.n_inflight <- t.n_inflight + 1;
  if c < t.first_done then t.first_done <- c

(* The way of [ways] holding line [lineno], or -1. *)
let find_way ways lineno =
  let n = Array.length ways in
  let rec loop i =
    if i >= n then -1
    else
      let w = Array.unsafe_get ways i in
      if w.valid && w.tag = lineno then i else loop (i + 1)
  in
  loop 0

let victim ways =
  let n = Array.length ways in
  let best = ref ways.(0) in
  for i = 1 to n - 1 do
    if (not ways.(i).valid) && !best.valid then best := ways.(i)
    else if ways.(i).valid = !best.valid && ways.(i).last_use < !best.last_use
    then best := ways.(i)
  done;
  !best

let count_hit t ~write =
  if write then begin
    t.st.writes <- t.st.writes + 1;
    t.st.write_hits <- t.st.write_hits + 1
  end
  else begin
    t.st.reads <- t.st.reads + 1;
    t.st.read_hits <- t.st.read_hits + 1
  end

let count_miss t ~write =
  if write then t.st.writes <- t.st.writes + 1 else t.st.reads <- t.st.reads + 1

let access t ~cycle ~lineno ~write ~write_alloc =
  purge_inflight t cycle;
  let ways = t.sets.(lineno mod t.num_sets) in
  let way = find_way ways lineno in
  if way >= 0 then begin
    let line = ways.(way) in
    line.last_use <- cycle;
    if write then line.dirty <- line.dirty || write_alloc;
    if line.valid_at <= cycle then begin
      count_hit t ~write;
      Hit
    end
    else begin
      (* in-flight line: merge into the pending fill (hit-under-miss) *)
      count_miss t ~write;
      Miss line.valid_at
    end
  end
  else if write && not write_alloc then begin
    (* write-through, no allocate: pass through to the next level's
       bandwidth without occupying an MSHR *)
    count_miss t ~write;
    match t.next ~cycle ~lineno with
    | Hit -> Miss (cycle + t.hit_latency)
    | Miss c -> Miss c
    | Reserve_fail -> Reserve_fail
  end
  else if t.n_inflight >= Array.length t.inflight then begin
    t.st.reserve_fails <- t.st.reserve_fails + 1;
    Reserve_fail
  end
  else begin
    count_miss t ~write;
    let v = victim ways in
    if v.valid && v.dirty then t.st.writebacks <- t.st.writebacks + 1;
    (match t.next ~cycle ~lineno with
     | Hit ->
       (* next level hit still pays its transfer: modelled by next *)
       v.tag <- lineno;
       v.valid <- true;
       v.dirty <- write && write_alloc;
       v.last_use <- cycle;
       v.valid_at <- cycle + t.hit_latency;
       t.st.fills <- t.st.fills + 1;
       Miss v.valid_at
     | Miss c ->
       v.tag <- lineno;
       v.valid <- true;
       v.dirty <- write && write_alloc;
       v.last_use <- cycle;
       v.valid_at <- c;
       add_inflight t c;
       t.st.fills <- t.st.fills + 1;
       Miss c
     | Reserve_fail ->
       t.st.reserve_fails <- t.st.reserve_fails + 1;
       Reserve_fail)
  end
