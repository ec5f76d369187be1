type report =
  { jobs : int
  ; sim_runs : int
  ; sim_hits : int
  ; dedup_hits : int
  ; trace_records : int
  ; trace_replays : int
  ; alloc_runs : int
  ; alloc_hits : int
  }

type t =
  { n_jobs : int
  ; replay : bool
  ; lock : Mutex.t
  ; disk : Store.t option
      (** persistent write-through layer under all three memos; answers
          are bit-identical (Marshal round-trips) *)
  ; stats : Gpusim.Stats.t Memo.t
  ; traces : Gpusim.Replay.t Memo.t
  ; allocs : Regalloc.Allocator.t Memo.t
  ; resources : Resource.t Memo.t  (** in memory only; see {!resource} *)
  ; kept : (string * Machine.Backend.t * int * int, Regalloc.Allocator.t) Hashtbl.t
      (** under [lock]: the Chaitin-Briggs allocations that resource
          analyses finished at MaxReg, by kernel digest, backend, block
          size and limit, each until the allocation memo answers a key
          of theirs. They are spill-free, so one answers every shared
          spare. *)
  ; mutable sim_runs : int
  ; mutable sim_hits : int
  ; mutable dedup_hits : int
  ; mutable trace_records : int
  ; mutable trace_replays : int
  ; mutable alloc_runs : int
  ; mutable alloc_hits : int
  }

let create ?(jobs = 1) ?(replay = true) ?(trace_budget = 1 lsl 25) ?store () =
  if jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  let persist kind = Option.map (fun d -> (d, kind)) store in
  { n_jobs = jobs
  ; replay
  ; lock = Mutex.create ()
  ; disk = store
  ; stats = Memo.create ?store:(persist "stats") ()
  ; traces =
      Memo.create ~budget:trace_budget ~weight:Gpusim.Replay.events
        ?store:(persist "trace") ()
  ; allocs = Memo.create ?store:(persist "alloc") ()
  ; resources = Memo.create ()
  ; kept = Hashtbl.create 16
  ; sim_runs = 0
  ; sim_hits = 0
  ; dedup_hits = 0
  ; trace_records = 0
  ; trace_replays = 0
  ; alloc_runs = 0
  ; alloc_hits = 0
  }

let jobs t = t.n_jobs
let store t = t.disk

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---------- content addressing ---------- *)

let digest s = Digest.to_hex (Digest.string s)

(* pinned by test_replay; every simulation and allocation key folds it in
   through [kernel_digest] *)
let model_epoch = "5a15d1eb738764ade30cbe7a8f4a446c"

(* Each kernel's digest, computed once per physical kernel: the shared
   SSA kernels and every allocated one, which the allocation memo hands
   out as one physical kernel per key. Ephemerons, so the table keeps no
   kernel alive. *)
module Kernel_digests = Ephemeron.K1.Make (struct
  type t = Ptx.Kernel.t

  let equal = ( == )
  let hash (k : t) = Hashtbl.hash (k.Ptx.Kernel.name, Array.length k.Ptx.Kernel.body)
end)

let kernel_digests = Kernel_digests.create 64
let kernel_digests_lock = Mutex.create ()

let kernel_digest k =
  match
    Mutex.protect kernel_digests_lock (fun () -> Kernel_digests.find_opt kernel_digests k)
  with
  | Some d -> d
  | None ->
    let d = digest (model_epoch ^ Ptx.Printer.kernel_to_string k) in
    Mutex.protect kernel_digests_lock (fun () -> Kernel_digests.replace kernel_digests k d);
    d

(* pinned by test_regalloc; every allocation key folds it in *)
let alloc_epoch = "f7ee6d9102bc82c60f683d84c296d17a"

(* Config.t is a pure-data record (ints, strings, variants), so
   marshalling gives a stable structural fingerprint. *)
let data_digest v = digest (Marshal.to_string v [])

(* The launch's trace key: kernel image, geometry, params and canonical
   initial-memory digest — no Config.t, no TLP (see Replay.launch_key).
   Both digests are cached (the kernel's above, a shared input image's
   by [Memory.freeze]), so only geometry and parameters are hashed. *)
let launch_key (_ : t) (l : Gpusim.Launch.t) =
  Gpusim.Replay.launch_key ~kernel_digest:(kernel_digest l.Gpusim.Launch.kernel) l

let sim_key t (l : Gpusim.Launch.t) cfg ~tlp =
  digest
    (String.concat "|"
       [ launch_key t l; data_digest cfg; string_of_int tlp ])

(* the readable concat is digested, like every other memo key *)
let alloc_key ~strategy ~backend ~shared_spare ~block_size ~reg_limit ~kernel_digest =
  digest @@ String.concat "|"
    [ kernel_digest
    ; alloc_epoch
    ; (match (strategy : Regalloc.Allocator.strategy) with
       | Regalloc.Allocator.Chaitin_briggs -> "cb"
       | Regalloc.Allocator.Linear_scan -> "ls")
    ; Machine.Backend.to_string backend
    ; string_of_int shared_spare
    ; string_of_int block_size
    ; string_of_int reg_limit
    ]

(* ---------- domain pool ---------- *)

(* Non-zero on worker domains (and on the main domain while it doubles
   as a worker): nested engine calls from inside a job run serially
   instead of spawning a second generation of domains. A depth rather
   than a flag, because daemon connection threads share one domain and
   may enter and leave [pmap] interleaved. *)
let worker_key = Domain.DLS.new_key (fun () -> Atomic.make 0)
let in_worker () = Atomic.get (Domain.DLS.get worker_key) > 0

let as_worker f =
  let depth = Domain.DLS.get worker_key in
  Atomic.incr depth;
  Fun.protect ~finally:(fun () -> Atomic.decr depth) f

(* Parallel array map: an atomic cursor feeds items to [width] workers
   (the calling domain is one of them). Order of results is by index,
   so the output is deterministic whatever the interleaving. *)
let pmap t f arr =
  let n = Array.length arr in
  (* spawning more domains than cores buys nothing and costs every GC a
     wider synchronisation barrier, so the requested width is clamped to
     the runtime's recommendation; results are ordered by index, so the
     effective width never changes an answer *)
  let width =
    min (min t.n_jobs n) (max 1 (Domain.recommended_domain_count ()))
  in
  if width <= 1 || in_worker () then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      as_worker (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n && Atomic.get failure = None then begin
            (try results.(i) <- Some (f arr.(i))
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
            loop ()
          end
        in
        loop ())
    in
    let domains = List.init (width - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (match Atomic.get failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> assert false)
      results
  end

let map t f xs = Array.to_list (pmap t f (Array.of_list xs))

(* ---------- allocation ---------- *)

let allocate t ?(strategy = Regalloc.Allocator.Chaitin_briggs)
    ?(backend = Machine.Backend.Ptx) ?(shared_spare = 0)
    (app : Workloads.App.t) ~reg_limit =
  let kernel = Workloads.App.kernel app in
  let kernel_digest = kernel_digest kernel in
  let block_size = app.Workloads.App.block_size in
  let key =
    alloc_key ~strategy ~backend ~shared_spare ~block_size ~reg_limit ~kernel_digest
  in
  let label = app.Workloads.App.abbr in
  (* the allocation a resource analysis finished at this limit, if any,
     goes with the first answer to this key: a miss takes it instead of
     allocating, a hit drops it *)
  let kept =
    match strategy with
    | Regalloc.Allocator.Chaitin_briggs -> Some (kernel_digest, backend, block_size, reg_limit)
    | Regalloc.Allocator.Linear_scan -> None
  in
  let drop_kept () = Option.iter (Hashtbl.remove t.kept) kept in
  let compute () =
    match
      locked t (fun () ->
        let a = Option.bind kept (Hashtbl.find_opt t.kept) in
        drop_kept ();
        a)
    with
    | Some a -> Compile.gated ~backend ~label ~block_size kernel (fun () -> a)
    | None ->
      Compile.allocate ~strategy ~backend ~shared_spare ~label ~block_size ~reg_limit
        kernel
  in
  (* with the gate armed, never answer allocations from disk: the gate's
     audits must run on every allocation this process hands out *)
  let a, how =
    Memo.get_or_compute ~fetch:(not (Verify.Gate.enabled ())) t.allocs key
      compute
  in
  locked t (fun () ->
    match how with
    | `Computed -> t.alloc_runs <- t.alloc_runs + 1
    | `Hit | `Waited ->
      drop_kept ();
      t.alloc_hits <- t.alloc_hits + 1);
  a

(* ---------- resource analysis ---------- *)

(* App descriptors, configurations and backends are pure data, so the
   marshalled triple is a structural key. The analysis is not written to
   the store: no key could name the code that computes it. The MaxReg
   allocation it finishes is kept for {!allocate}. *)
let resource t ?(backend = Machine.Backend.Ptx) cfg (app : Workloads.App.t) =
  fst
    (Memo.get_or_compute t.resources
       (data_digest (app, cfg, backend))
       (fun () ->
          let r, finished = Resource.analyze_and_finish ~backend cfg app in
          Option.iter
            (fun a ->
               let k =
                 ( kernel_digest (Workloads.App.kernel app)
                 , backend
                 , r.Resource.block_size
                 , r.Resource.max_reg )
               in
               locked t (fun () -> Hashtbl.replace t.kept k a))
            finished;
          r))

(* ---------- simulation ---------- *)

(* One distinct point of a batch that this call computes. *)
type point =
  { launch : Gpusim.Launch.t
  ; cfg : Gpusim.Config.t
  ; tlp : int
  ; skey : string
  ; lkey : string
  ; mutable mode : [ `Cold | `Record | `Replay ]
  ; mutable published : bool  (** its statistics are published *)
  }

let exec_cold p = Gpusim.Sm.run p.cfg (Gpusim.Launch.with_tlp p.launch p.tlp)

(* A cold run records its trace in its functional pass before timing
   it; keep the trace, and publish it only after a successful run (a
   Cycle_limit abort must not leave a truncated trace behind).
   Publishing writes it through to the persistent store — that is what
   makes "record each launch once ever" hold across processes. *)
let exec_record t p =
  let tr = Gpusim.Replay.create p.launch in
  let st = Gpusim.Sm.run ~record:tr p.cfg (Gpusim.Launch.with_tlp p.launch p.tlp) in
  Gpusim.Replay.finish tr;
  Memo.publish t.traces p.lkey tr;
  locked t (fun () -> t.trace_records <- t.trace_records + 1);
  st

(* A trace another caller is still recording is waited for; one missing
   from memory (evicted, or over the budget) is refetched from the
   persistent store, and only a launch absent from both runs cold. *)
let exec_replay t p =
  match Memo.find t.traces p.lkey with
  | Some tr ->
    let st =
      Gpusim.Sm.run ~replay:tr p.cfg (Gpusim.Launch.with_tlp p.launch p.tlp)
    in
    locked t (fun () -> t.trace_replays <- t.trace_replays + 1);
    st
  | None -> exec_cold p

(* The elements of [xs] whose [key] has not occurred before, in order. *)
let distinct_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
       let k = key x in
       (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    xs

let rec simulate_batch t items =
  let items = Array.of_list items in
  let keys = Array.map (fun (l, cfg, tlp) -> sim_key t l cfg ~tlp) items in
  let distinct =
    distinct_by (Array.get keys) (List.init (Array.length items) Fun.id)
  in
  let answers = Hashtbl.create (Array.length items) in
  let hits = ref (Array.length items - List.length distinct) in
  let waited = ref 0 in
  let replay = t.replay in
  let point i =
    let launch, cfg, tlp = items.(i) in
    { launch; cfg; tlp; skey = keys.(i)
    ; lkey = (if replay then launch_key t launch else "")
    ; mode = (if replay then `Replay else `Cold)
    ; published = false }
  in
  (* every absent key is claimed at once and tried on disk, where
     statistics computed by an earlier process answer without any
     simulation *)
  let todo, awaited =
    List.fold_right2
      (fun i slot (todo, awaited) ->
         match slot with
         | Memo.Ready st ->
           Hashtbl.replace answers keys.(i) st;
           incr hits;
           (todo, awaited)
         | Memo.Pending -> (todo, i :: awaited)
         | Memo.Claimed -> (point i :: todo, awaited))
      distinct
      (Memo.claim t.stats (List.map (Array.get keys) distinct))
      ([], [])
  in
  let abandon p =
    if not p.published then begin
      Memo.abandon t.stats p.skey;
      if p.mode = `Record then Memo.abandon t.traces p.lkey
    end
  in
  Fun.protect ~finally:(fun () -> List.iter abandon todo) @@ fun () ->
  (* the first point of each launch whose trace this call claims (absent
     from memory and disk) records it; every other point replays *)
  if replay then begin
    let firsts = distinct_by (fun p -> p.lkey) todo in
    List.iter2
      (fun p -> function Memo.Claimed -> p.mode <- `Record | _ -> ())
      firsts
      (Memo.claim t.traces (List.map (fun p -> p.lkey) firsts))
  end;
  (* each point is published as soon as it finishes, so other callers
     waiting on it need not wait for the whole batch *)
  let run p =
    let st =
      match p.mode with
      | `Cold -> exec_cold p
      | `Record -> exec_record t p
      | `Replay -> exec_replay t p
    in
    locked t (fun () -> t.sim_runs <- t.sim_runs + 1);
    Memo.publish t.stats p.skey st;
    p.published <- true;
    st
  in
  (* two waves: recorders first, so every other point of the same
     launch — possibly on another domain — replays rather than paying
     functional execution again *)
  let wave recording =
    let ps = Array.of_list (List.filter (fun p -> (p.mode = `Record) = recording) todo) in
    Array.iter2 (fun p st -> Hashtbl.replace answers p.skey st) ps (pmap t run ps)
  in
  wave true;
  wave false;
  (* keys claimed by another caller are awaited last; one whose owner
     gave up is recomputed *)
  List.iter
    (fun i ->
       let st =
         match Memo.find t.stats keys.(i) with
         | Some st ->
           incr hits;
           incr waited;
           st
         | None -> List.hd (simulate_batch t [ items.(i) ])
       in
       Hashtbl.replace answers keys.(i) st)
    awaited;
  locked t (fun () ->
    t.sim_hits <- t.sim_hits + !hits;
    t.dedup_hits <- t.dedup_hits + !waited);
  Array.to_list (Array.map (Hashtbl.find answers) keys)

let simulate t l cfg ~tlp =
  match simulate_batch t [ (l, cfg, tlp) ] with
  | [ st ] -> st
  | _ -> assert false

(* ---------- observability ---------- *)

let report t =
  locked t (fun () ->
    { jobs = t.n_jobs
    ; sim_runs = t.sim_runs
    ; sim_hits = t.sim_hits
    ; dedup_hits = t.dedup_hits
    ; trace_records = t.trace_records
    ; trace_replays = t.trace_replays
    ; alloc_runs = t.alloc_runs
    ; alloc_hits = t.alloc_hits
    })

let reset t =
  Memo.clear t.stats;
  Memo.clear t.traces;
  Memo.clear t.allocs;
  Memo.clear t.resources;
  locked t (fun () ->
    Hashtbl.reset t.kept;
    t.sim_runs <- 0;
    t.sim_hits <- 0;
    t.dedup_hits <- 0;
    t.trace_records <- 0;
    t.trace_replays <- 0;
    t.alloc_runs <- 0;
    t.alloc_hits <- 0)

let pp_report fmt r =
  Format.fprintf fmt
    "engine: jobs=%d, %d simulations (%d trace records, %d trace replays), \
     %d memo hits (%d waited on another caller), %d allocations (%d hits)"
    r.jobs r.sim_runs r.trace_records r.trace_replays r.sim_hits r.dedup_hits
    r.alloc_runs r.alloc_hits
