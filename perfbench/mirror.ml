(* The traced walk: a serial replica of what [Crat.Engine] (at jobs 1),
   [Crat.Baselines], [Crat.Opttlp.profile] and [Crat.Optimizer.plan] do,
   calling each layer's public function directly so every call gets its
   own span. It keeps the engine's memo policy — each distinct
   allocation and simulation runs once, the first point of a launch
   records its trace and the others replay, the same physical-identity
   digest memos — so a traced pass does the same work as an untraced
   one. The harness checks that claim on every traced run: the replica
   must produce the same Stats fingerprint, and how far its counters are
   from the engine's is reported as trace.count_drift.

   Limits: the replica keeps every trace resident (the engine's default
   trace budget is never reached by these workloads) and never arms the
   verify gate. *)

module Alloc = Regalloc.Allocator

type counts =
  { sim_runs : int
  ; sim_hits : int
  ; trace_records : int
  ; trace_replays : int
  ; alloc_runs : int
  ; alloc_hits : int
  }

let counts_of_report (r : Crat.Engine.report) =
  { sim_runs = r.Crat.Engine.sim_runs
  ; sim_hits = r.Crat.Engine.sim_hits
  ; trace_records = r.Crat.Engine.trace_records
  ; trace_replays = r.Crat.Engine.trace_replays
  ; alloc_runs = r.Crat.Engine.alloc_runs
  ; alloc_hits = r.Crat.Engine.alloc_hits
  }

type t =
  { store : Store.t option
  ; allocs : (string, Alloc.t) Hashtbl.t
  ; stats : (string, Gpusim.Stats.t) Hashtbl.t
  ; traces : (string, Gpusim.Replay.t) Hashtbl.t
  ; mutable kernel_digests : (Ptx.Kernel.t * string) list
  ; mutable launch_keys : (Gpusim.Launch.t * string) list
  ; mutable c : counts
  ; mutable trace_events : int
  }

let create ?store () =
  { store
  ; allocs = Hashtbl.create 64
  ; stats = Hashtbl.create 256
  ; traces = Hashtbl.create 32
  ; kernel_digests = []
  ; launch_keys = []
  ; c =
      { sim_runs = 0
      ; sim_hits = 0
      ; trace_records = 0
      ; trace_replays = 0
      ; alloc_runs = 0
      ; alloc_hits = 0
      }
  ; trace_events = 0
  }

let counts m = m.c

(* ---------- store I/O ---------- *)

let get_value m ~kind ~key =
  match m.store with
  | None -> None
  | Some d ->
    snd
      (Span.span "store.get" ~work:(fun (n, _) -> float_of_int n) (fun () ->
         match Store.get d ~kind ~key with
         | None -> (0, None)
         | Some s -> (String.length s, Some (Marshal.from_string s 0))))

let put_bytes d ~kind ~key s =
  Span.span "store.put" ~work:(fun () -> float_of_int (String.length s)) (fun () ->
    Store.put d ~kind ~key s)

let put_value m ~kind ~key v =
  match m.store with
  | None -> ()
  | Some d -> put_bytes d ~kind ~key (Marshal.to_string v [])

(* ---------- content keys (as the engine derives them) ---------- *)

let digest s = Digest.to_hex (Digest.string s)

let kernel_digest m k =
  match List.assq_opt k m.kernel_digests with
  | Some d -> d
  | None ->
    let _, d =
      Span.span "ptx.digest" ~work:(fun (n, _) -> float_of_int n) (fun () ->
        let text = Ptx.Printer.kernel_to_string k in
        (String.length text, digest text))
    in
    let kept = if List.length m.kernel_digests >= 512 then [] else m.kernel_digests in
    m.kernel_digests <- (k, d) :: kept;
    d

let launch_key m (l : Gpusim.Launch.t) =
  match List.assq_opt l m.launch_keys with
  | Some k -> k
  | None ->
    let kd = kernel_digest m l.Gpusim.Launch.kernel in
    let k =
      Span.span "gpusim.launch_key" (fun () ->
        Gpusim.Replay.launch_key ~kernel_digest:kd l)
    in
    let kept = if List.length m.launch_keys >= 512 then [] else m.launch_keys in
    m.launch_keys <- (l, k) :: kept;
    k

let sim_key m l cfg ~tlp =
  let lk = launch_key m l in
  Span.span "core.sim_key" (fun () ->
    digest
      (String.concat "|"
         [ lk; digest (Marshal.to_string (cfg : Gpusim.Config.t) []); string_of_int tlp ]))

(* ---------- allocation ---------- *)

let allocate m ?(backend = Machine.Backend.Ptx) ?(shared_spare = 0)
    (app : Workloads.App.t) ~reg_limit =
  let kernel = Span.span "workloads.kernel" (fun () -> Workloads.App.kernel app) in
  let block_size = app.Workloads.App.block_size in
  let key =
    String.concat "|"
      [ kernel_digest m kernel
      ; "cb"
      ; Machine.Backend.to_string backend
      ; string_of_int shared_spare
      ; string_of_int block_size
      ; string_of_int reg_limit
      ]
  in
  let dkey = digest key in
  let hit () = m.c <- { m.c with alloc_hits = m.c.alloc_hits + 1 } in
  match Hashtbl.find_opt m.allocs key with
  | Some a ->
    hit ();
    a
  | None ->
    (match (get_value m ~kind:"alloc" ~key:dkey : Alloc.t option) with
     | Some a ->
       hit ();
       Hashtbl.replace m.allocs key a;
       a
     | None ->
       let shared_policy = if shared_spare > 0 then `Spare shared_spare else `Off in
       let scalar, scalar_limit =
         match backend with
         | Machine.Backend.Ptx -> ((fun _ -> false), 0)
         | Machine.Backend.Machine ->
           ( Span.span "machine.scalarize" (fun () ->
               Machine.Scalarize.predicate ~block_size kernel)
           , Machine.Backend.default_scalar_limit )
       in
       let a =
         Span.span "regalloc.allocate"
           ~work:(fun _ -> float_of_int (Ptx.Kernel.instr_count kernel))
           (fun () ->
             Alloc.allocate ~strategy:Alloc.Chaitin_briggs ~shared_policy ~scalar
               ~scalar_limit ~block_size ~reg_limit kernel)
       in
       m.c <- { m.c with alloc_runs = m.c.alloc_runs + 1 };
       Hashtbl.replace m.allocs key a;
       put_value m ~kind:"alloc" ~key:dkey a;
       a)

(* ---------- simulation ---------- *)

type point =
  { launch : Gpusim.Launch.t
  ; cfg : Gpusim.Config.t
  ; tlp : int
  ; skey : string
  ; lkey : string
  ; record : bool
  }

let winstrs (st : Gpusim.Stats.t) = float_of_int st.Gpusim.Stats.warp_instrs

let exec_record m p =
  let cold =
    Span.span "gpusim.memory_copy" (fun () ->
      { p.launch with
        Gpusim.Launch.memory = Gpusim.Memory.copy p.launch.Gpusim.Launch.memory
      ; tlp_limit = p.tlp
      })
  in
  let st, tr =
    Span.span "gpusim.sm_record" ~work:(fun (st, _) -> winstrs st) (fun () ->
      let tr = Gpusim.Replay.create p.launch in
      let st = Gpusim.Sm.run ~record:tr p.cfg cold in
      Gpusim.Replay.finish tr;
      (st, tr))
  in
  Hashtbl.replace m.traces p.lkey tr;
  m.trace_events <- m.trace_events + Gpusim.Replay.events tr;
  (match m.store with
   | None -> ()
   | Some d ->
     let bytes =
       Span.span "gpusim.trace_encode"
         ~work:(fun s -> float_of_int (String.length s))
         (fun () -> Gpusim.Replay.to_bytes tr)
     in
     put_bytes d ~kind:"trace" ~key:p.lkey bytes);
  m.c <- { m.c with trace_records = m.c.trace_records + 1 };
  st

let exec_replay m p =
  let tr =
    match Hashtbl.find_opt m.traces p.lkey with
    | Some tr -> tr
    | None -> failwith "traced walk: a replayed point has no recorded trace"
  in
  let st =
    Span.span "gpusim.sm_replay" ~work:winstrs (fun () ->
      Gpusim.Sm.run ~replay:tr p.cfg (Gpusim.Launch.with_tlp p.launch p.tlp))
  in
  m.c <- { m.c with trace_replays = m.c.trace_replays + 1 };
  st

let trace_on_disk m lkey =
  match m.store with
  | None -> false
  | Some d -> Store.mem d ~kind:"trace" ~key:lkey

let simulate_batch m items =
  let keys = List.map (fun (l, cfg, tlp) -> sim_key m l cfg ~tlp) items in
  let seen = Hashtbl.create 16 in
  let recording = Hashtbl.create 16 in
  let pending = ref [] in
  List.iter2
    (fun (launch, cfg, tlp) k ->
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        let stored =
          Hashtbl.mem m.stats k
          ||
          match (get_value m ~kind:"stats" ~key:k : Gpusim.Stats.t option) with
          | Some st ->
            Hashtbl.replace m.stats k st;
            true
          | None -> false
        in
        if not stored then begin
          let lkey = launch_key m launch in
          let record =
            (not (Hashtbl.mem recording lkey))
            && (not (Hashtbl.mem m.traces lkey))
            && not (trace_on_disk m lkey)
          in
          if record then Hashtbl.add recording lkey ();
          pending := { launch; cfg; tlp; skey = k; lkey; record } :: !pending
        end
      end)
    items keys;
  let pending = List.rev !pending in
  (* recorders first, so every other point of the launch replays *)
  let recorded =
    List.map (fun p -> (p.skey, exec_record m p)) (List.filter (fun p -> p.record) pending)
  in
  let replayed =
    List.map
      (fun p -> (p.skey, exec_replay m p))
      (List.filter (fun p -> not p.record) pending)
  in
  List.iter
    (fun (k, st) ->
      m.c <- { m.c with sim_runs = m.c.sim_runs + 1 };
      Hashtbl.replace m.stats k st;
      put_value m ~kind:"stats" ~key:k st)
    (recorded @ replayed);
  m.c <-
    { m.c with sim_hits = m.c.sim_hits + (List.length items - List.length pending) };
  List.map (fun k -> Hashtbl.find m.stats k) keys

let simulate m l cfg ~tlp =
  match simulate_batch m [ (l, cfg, tlp) ] with
  | [ st ] -> st
  | _ -> assert false

(* ---------- the drivers above the engine ---------- *)

let launch app ~kernel ~input =
  Span.span "workloads.launch" (fun () -> Workloads.App.launch app ~kernel ~input ())

let resource ?backend cfg app =
  Span.span "core.resource" (fun () -> Crat.Resource.analyze ?backend cfg app)

let default_regs (app : Workloads.App.t) = app.Workloads.App.default_regs

(* [Crat.Opttlp.profile]: one batch over the TLP ladder of one launch. *)
let profile m cfg app ~input ?kernel ~max_tlp () =
  let kernel =
    match kernel with
    | Some k -> k
    | None -> (allocate m app ~reg_limit:(default_regs app)).Alloc.kernel
  in
  let l = launch app ~kernel ~input in
  let tlps = List.init (max 1 max_tlp) (fun i -> i + 1) in
  let stats = simulate_batch m (List.map (fun tlp -> (l, cfg, tlp)) tlps) in
  fst
    (List.fold_left2
       (fun (bt, bc) t (st : Gpusim.Stats.t) ->
         let c = st.Gpusim.Stats.cycles in
         if c < bc then (t, c) else (bt, bc))
       (1, max_int) tlps stats)

type evaluated = string * int * int * Gpusim.Stats.t  (* label, reg, tlp, stats *)

let max_tlp m cfg app ~input : evaluated =
  let alloc = allocate m app ~reg_limit:(default_regs app) in
  let r = resource cfg app in
  let tlp = max 1 r.Crat.Resource.max_tlp in
  let l = launch app ~kernel:alloc.Alloc.kernel ~input in
  ("MaxTLP", default_regs app, tlp, simulate m l cfg ~tlp)

let opt_tlp m cfg app ~input : evaluated =
  let alloc = allocate m app ~reg_limit:(default_regs app) in
  let r = resource cfg app in
  let tlp =
    profile m cfg app ~input ~kernel:alloc.Alloc.kernel
      ~max_tlp:(max 1 r.Crat.Resource.max_tlp) ()
  in
  let l = launch app ~kernel:alloc.Alloc.kernel ~input in
  ("OptTLP", default_regs app, tlp, simulate m l cfg ~tlp)

type candidate =
  { point : Crat.Design_space.point
  ; alloc : Alloc.t
  ; tpsc : float
  ; spare : int
  }

type plan =
  { resource : Crat.Resource.t
  ; opt_tlp : int
  ; candidates : candidate list
  ; chosen : candidate
  }

(* [Crat.Optimizer.plan] with its default (loop-weighted) TPSC metric. *)
let plan m ~mode ~backend ~shared_spilling ~profile_input cfg
    (app : Workloads.App.t) =
  let resource = resource ~backend cfg app in
  let max_tlp = resource.Crat.Resource.max_tlp in
  let opt_tlp =
    match mode with
    | `Profile -> profile m cfg app ~input:profile_input ~max_tlp ()
    | `Static ->
      Span.span "core.opttlp_static" (fun () ->
        Crat.Opttlp.estimate_static cfg app ~input:profile_input ~max_tlp ())
  in
  let points = Crat.Design_space.prune cfg resource ~opt_tlp in
  let costs = Crat.Micro.measure cfg in
  let candidates =
    List.map
      (fun (p : Crat.Design_space.point) ->
        let spare =
          if shared_spilling then
            Gpusim.Occupancy.spare_shared_bytes cfg
              (Crat.Resource.usage_at resource ~regs:p.Crat.Design_space.reg)
              ~tlp:p.Crat.Design_space.tlp
          else 0
        in
        let alloc =
          allocate m app ~backend ~reg_limit:p.Crat.Design_space.reg ~shared_spare:spare
        in
        let tpsc =
          Crat.Tpsc.tpsc_weighted cfg costs ~block_size:resource.Crat.Resource.block_size
            ~tlp:p.Crat.Design_space.tlp alloc
        in
        { point = p; alloc; tpsc; spare })
      points
  in
  let chosen =
    match candidates with
    | [] -> invalid_arg (app.Workloads.App.abbr ^ ": empty candidate set")
    | first :: rest ->
      List.fold_left (fun best c -> if c.tpsc < best.tpsc then c else best) first rest
  in
  { resource; opt_tlp; candidates; chosen }

(* [Crat.Baselines.crat] in `Profile mode. *)
let crat m ~shared_spilling cfg app ~input : evaluated =
  let p =
    plan m ~mode:`Profile ~backend:Machine.Backend.Ptx ~shared_spilling
      ~profile_input:input cfg app
  in
  let c = p.chosen in
  let l = launch app ~kernel:c.alloc.Alloc.kernel ~input in
  let tlp = c.point.Crat.Design_space.tlp in
  ( (if shared_spilling then "CRAT" else "CRAT-local")
  , c.point.Crat.Design_space.reg
  , tlp
  , simulate m l cfg ~tlp )
