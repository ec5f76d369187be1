open Ptx
module D = Diagnostic
module Dom = Absint.Dom

type access =
  { idx : int
  ; blk : int
  ; store : bool
  ; width : int
  ; form : Dom.aff
  ; addr_div : bool  (** can the address differ between threads? *)
  ; value_div : bool  (** for stores: can the stored value differ? *)
  }

(* ---------- collision arithmetic on exact affine forms ---------- *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* is there a multiple of [g] in [lo, hi]? ([g = 0] means only 0) *)
let exists_mult g lo hi =
  if lo > hi then false
  else if g = 0 then lo <= 0 && 0 <= hi
  else begin
    let g = abs g in
    let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
    fdiv hi g * g >= lo
  end

(* Can accesses [a] (by thread t1) and [b] (by thread t2), both exact and
   in the same region, overlap for two *different* threads t1 <> t2 of a
   block of [bs] threads? Overlap means da*t1 + ca ∈ (cb - wa, cb + wb)
   i.e. v = da*t1 - db*t2 ∈ [delta - wa + 1, delta + wb - 1]. *)
let cross_thread_collides bs (a : access) (b : access) =
  let da = a.form.Dom.tid and db = b.form.Dom.tid in
  let delta = b.form.Dom.base - a.form.Dom.base in
  let lo_i = delta - a.width + 1 and hi_i = delta + b.width - 1 in
  if bs <= 1 then false
  else if da = db then
    if da = 0 then
      (* all threads at one fixed address each: every pair collides iff
         the two fixed ranges overlap *)
      lo_i <= 0 && 0 <= hi_i
    else begin
      (* v = da * (t1 - t2), t1 <> t2, |t1 - t2| <= bs - 1 *)
      let m = abs da * (bs - 1) in
      exists_mult da (max lo_i (-m)) (min hi_i (-1))
      || exists_mult da (max lo_i 1) (min hi_i m)
    end
  else begin
    (* v = da*t1 - db*t2: conservatively, any multiple of gcd(da, db)
       within the achievable range (this includes the same-thread
       diagonal — acceptable over-approximation for a warning) *)
    let span c = (min 0 (c * (bs - 1)), max 0 (c * (bs - 1))) in
    let lo1, hi1 = span da and lo2, hi2 = span (-db) in
    let g = gcd da db in
    exists_mult g (max lo_i (lo1 + lo2)) (min hi_i (hi1 + hi2))
  end

(* regions can alias unless both are exact with distinct declared
   symbols; a differing ctaid coefficient leaves an unknown inter-block
   constant in the address delta, so collision must be assumed *)
let may_overlap bs (a : access) (b : access) =
  if not (a.form.Dom.exact && b.form.Dom.exact) then true
  else
    match (a.form.Dom.sym, b.form.Dom.sym) with
    | Some (Dom.Sym s1), Some (Dom.Sym s2) when s1 <> s2 -> false
    | Some (Dom.Param _), _ | _, Some (Dom.Param _) -> true
    | Some _, None | None, Some _ -> true
    | Some _, Some _ | None, None ->
      a.form.Dom.cta <> b.form.Dom.cta || cross_thread_collides bs a b

(* ---------- barrier-free / plain reachability ---------- *)

let block_has_barrier flow (b : Cfg.Flow.block) =
  let rec loop i =
    if i > b.Cfg.Flow.last then false
    else
      Instr.is_barrier flow.Cfg.Flow.instrs.(i)
      || loop (i + 1)
  in
  loop b.Cfg.Flow.first

(* reach.(a).(b): a path from the end of block [a] to the start of [b];
   when [barrier_free], interior blocks must contain no bar.sync *)
let reach_matrix flow ~barrier_free =
  let nb = Cfg.Flow.num_blocks flow in
  let has_bar =
    Array.map (block_has_barrier flow) flow.Cfg.Flow.blocks
  in
  let m = Array.make_matrix nb nb false in
  for a = 0 to nb - 1 do
    let q = Queue.create () in
    List.iter (fun s -> Queue.add s q) flow.Cfg.Flow.blocks.(a).Cfg.Flow.succs;
    let visited = Array.make nb false in
    while not (Queue.is_empty q) do
      let s = Queue.pop q in
      if not visited.(s) then begin
        visited.(s) <- true;
        m.(a).(s) <- true;
        if not (barrier_free && has_bar.(s)) then
          List.iter
            (fun s' -> if not visited.(s') then Queue.add s' q)
            flow.Cfg.Flow.blocks.(s).Cfg.Flow.succs
      end
    done
  done;
  m

let no_barrier_between flow i j =
  (* no barrier at instruction positions in (i, j) exclusive *)
  let rec loop x =
    if x >= j then true
    else (not (Instr.is_barrier flow.Cfg.Flow.instrs.(x))) && loop (x + 1)
  in
  loop (i + 1)

let check an =
  let flow = Absint.Analysis.flow an in
  let kernel = flow.Cfg.Flow.kernel.Kernel.name in
  let bs = min (Absint.Analysis.block_size an) 4096 in
  let divergent_block = Absint.Analysis.divergent_block an in
  let divergent_operand i op =
    not (Absint.Analysis.operand_at an i op).Dom.uni
  in
  let accesses = ref [] in
  Cfg.Flow.iter_instrs flow (fun i ins ->
    match ins with
    | Instr.Ld (Types.Shared, ty, _, addr) | Instr.St (Types.Shared, ty, addr, _)
      ->
      let form = (Absint.Analysis.address_at an i addr).Dom.aff in
      let addr_div =
        if form.Dom.exact then form.Dom.tid <> 0
        else divergent_operand i addr.Instr.base
      in
      let store, value_div =
        match ins with
        | Instr.St (_, _, _, v) ->
          (true, divergent_operand i v)
        | _ -> (false, false)
      in
      accesses :=
        { idx = i
        ; blk = flow.Cfg.Flow.block_of_instr.(i)
        ; store
        ; width = Types.width_bytes ty
        ; form
        ; addr_div
        ; value_div
        }
        :: !accesses
    | _ -> ());
  let accesses = List.rev !accesses in
  if accesses = [] || bs <= 1 then []
  else begin
    let bf = reach_matrix flow ~barrier_free:true in
    let any = reach_matrix flow ~barrier_free:false in
    let diags = ref [] in
    let in_spill (a : access) =
      Dom.decl_sym a.form = Some Regalloc.Spill.shared_stack_sym
    in
    (* V402: resolved spill-region accesses must follow the private
       per-thread pattern stride*tid + slot with the slot inside the
       per-thread stride *)
    (match Absint.Analysis.spill_stride an with
     | Some stride ->
       List.iter
         (fun a ->
            if in_spill a then begin
              let f = a.form in
              if
                f.Dom.tid <> stride
                || f.Dom.cta <> 0
                || f.Dom.base < 0
                || f.Dom.base + a.width > stride
              then
                diags :=
                  D.error ~instr:a.idx ~block:a.blk ~kernel ~code:"V402"
                    (Printf.sprintf
                       "spill-region access at %s + %d*tid + %d (width %d) is \
                        not per-thread private (stride %d)"
                       Regalloc.Spill.shared_stack_sym f.Dom.tid f.Dom.base
                       a.width stride)
                  :: !diags
            end)
         accesses
     | None -> ());
    (* an ordered barrier-free path from access [a] to access [b] *)
    let path_free a b =
      (a.blk = b.blk && a.idx < b.idx && no_barrier_between flow a.idx b.idx)
      || (no_barrier_between flow a.idx
            (flow.Cfg.Flow.blocks.(a.blk).Cfg.Flow.last + 1)
          && no_barrier_between flow
               (flow.Cfg.Flow.blocks.(b.blk).Cfg.Flow.first - 1)
               b.idx
          && bf.(a.blk).(b.blk))
    in
    let ordered a b = (a.blk = b.blk && a.idx < b.idx) || any.(a.blk).(b.blk) in
    let conflicts = Hashtbl.create 16 in
    let note a other =
      let prev = Option.value ~default:[] (Hashtbl.find_opt conflicts a.idx) in
      Hashtbl.replace conflicts a.idx (other :: prev)
    in
    let consider a b =
      (* distinct accesses: a race needs two different threads with no
         barrier between their dynamic instances *)
      let unsynced =
        (ordered a b && path_free a b)
        || (ordered b a && path_free b a)
        || ((not (ordered a b)) && (not (ordered b a))
            && (divergent_block a.blk || divergent_block b.blk))
      in
      if unsynced && may_overlap bs a b then begin
        let s, o = if a.store then (a, b) else (b, a) in
        note s o.idx
      end
    in
    let rec pairs = function
      | [] -> ()
      | a :: rest ->
        (* a against itself: one dynamic instance, all threads at once *)
        if a.store then begin
          if a.form.Dom.exact then begin
            if a.form.Dom.tid = 0 then begin
              if a.value_div && not (divergent_block a.blk) then
                diags :=
                  D.error ~instr:a.idx ~block:a.blk ~kernel ~code:"V401"
                    "whole block stores divergent values to a single shared \
                     address"
                  :: !diags
              else if a.value_div then note a a.idx
            end
            else if cross_thread_collides bs a a then note a a.idx
          end
          else if a.addr_div || a.value_div then note a a.idx
        end;
        List.iter (fun b -> if a.store || b.store then consider a b) rest;
        pairs rest
    in
    pairs accesses;
    Hashtbl.iter
      (fun idx others ->
         let blk = flow.Cfg.Flow.block_of_instr.(idx) in
         let others = List.sort_uniq compare others in
         diags :=
           D.warning ~instr:idx ~block:blk ~kernel ~code:"V403"
             (Printf.sprintf
                "shared store may conflict with %d access(es) on a \
                 barrier-free path (instrs %s)"
                (List.length others)
                (String.concat "," (List.map string_of_int others)))
           :: !diags)
      conflicts;
    D.sort !diags
  end
