(* Flat per-warp trace buffers, same scratch-array discipline as Sm's
   LSU ring: ints for pcs/masks, a float array of int64 bit patterns
   for lane addresses, doubling growth during recording and a one-time
   shrink in [finish]. *)

type wtrace =
  { wid : int
  ; mutable pcs : int array
  ; mutable masks : int array
  ; mutable n : int
  ; mutable addrs : float array  (* address bit patterns *)
  ; mutable addr_n : int
  }

type t =
  { image : Image.t
  ; block_size : int
  ; num_blocks : int
  ; warp_size : int
  ; warps : wtrace array array  (* [ctaid].(wid) *)
  }

let initial_cap = 64

let make_wtrace wid =
  { wid
  ; pcs = Array.make initial_cap 0
  ; masks = Array.make initial_cap 0
  ; n = 0
  ; addrs = Array.make initial_cap 0.0
  ; addr_n = 0
  }

let create (l : Launch.t) =
  let nwarps = l.Launch.block_size / l.Launch.warp_size in
  { image = Image.prepare l.Launch.kernel
  ; block_size = l.Launch.block_size
  ; num_blocks = l.Launch.num_blocks
  ; warp_size = l.Launch.warp_size
  ; warps =
      Array.init l.Launch.num_blocks (fun _ -> Array.init nwarps make_wtrace)
  }

let image t = t.image
let block_size t = t.block_size
let num_blocks t = t.num_blocks
let warp_size t = t.warp_size

let events t =
  Array.fold_left
    (fun acc ws ->
       Array.fold_left (fun acc w -> acc + w.n + w.addr_n) acc ws)
    0 t.warps

(* ---------- recording ---------- *)

let wtrace t ~ctaid ~wid = t.warps.(ctaid).(wid)

let record w ~pc ~mask =
  let cap = Array.length w.pcs in
  if w.n = cap then begin
    let grow a =
      let grown = Array.make (2 * cap) 0 in
      Array.blit a 0 grown 0 cap;
      grown
    in
    w.pcs <- grow w.pcs;
    w.masks <- grow w.masks
  end;
  Array.unsafe_set w.pcs w.n pc;
  Array.unsafe_set w.masks w.n mask;
  w.n <- w.n + 1

let record_addrs w src n =
  let cap = Array.length w.addrs in
  if w.addr_n + n > cap then begin
    let grown = Array.make (max (2 * cap) (w.addr_n + n)) 0.0 in
    Array.blit w.addrs 0 grown 0 w.addr_n;
    w.addrs <- grown
  end;
  Array.blit src 0 w.addrs w.addr_n n;
  w.addr_n <- w.addr_n + n

let finish t =
  Array.iter
    (fun ws ->
       Array.iter
         (fun w ->
            if Array.length w.pcs > w.n then begin
              w.pcs <- Array.sub w.pcs 0 w.n;
              w.masks <- Array.sub w.masks 0 w.n
            end;
            if Array.length w.addrs > w.addr_n then
              w.addrs <- Array.sub w.addrs 0 w.addr_n)
         ws)
    t.warps

(* ---------- replay ---------- *)

type cursor =
  { tr : wtrace
  ; code : Dcode.t
  ; mutable i : int  (* next event index *)
  ; mutable ai : int  (* next unconsumed address index *)
  ; mutable cur_addr_off : int  (* addresses of the last E_mem step *)
  ; mutable cur_addr_n : int
  ; mutable finished : bool
  }

let cursor t ~ctaid ~wid =
  { tr = t.warps.(ctaid).(wid)
  ; code = t.image.Image.code
  ; i = 0
  ; ai = 0
  ; cur_addr_off = 0
  ; cur_addr_n = 0
  ; finished = false
  }

let is_done c = c.finished || c.i >= c.tr.n
let warp_id c = c.tr.wid
let fetch c = if is_done c then -1 else Array.unsafe_get c.tr.pcs c.i
let active_mask c = Array.unsafe_get c.tr.masks c.i

let step c =
  let pc = Array.unsafe_get c.tr.pcs c.i in
  let mask = Array.unsafe_get c.tr.masks c.i in
  c.i <- c.i + 1;
  let exec = Array.unsafe_get c.code.Dcode.exec_of pc in
  (match exec with
   | Dcode.E_mem _ ->
     let n = Dcode.popcount mask in
     c.cur_addr_off <- c.ai;
     c.cur_addr_n <- n;
     c.ai <- c.ai + n
   | Dcode.E_exit -> c.finished <- true
   | Dcode.E_alu _ | Dcode.E_barrier -> ());
  exec

let mem_count c = c.cur_addr_n

let mem_addr c j =
  Int64.bits_of_float (Array.unsafe_get c.tr.addrs (c.cur_addr_off + j))

let mem_bits c = c.tr.addrs
let mem_first c = c.cur_addr_off

(* ---------- launch keys ---------- *)

let launch_key ?kernel_digest (l : Launch.t) =
  let kd =
    match kernel_digest with
    | Some d -> d
    | None -> Digest.to_hex (Digest.string (Ptx.Printer.kernel_to_string l.Launch.kernel))
  in
  let b = Buffer.create 256 in
  Buffer.add_string b kd;
  Printf.bprintf b "|%d|%d|%d|" l.Launch.block_size l.Launch.num_blocks
    l.Launch.warp_size;
  Buffer.add_string b (Digest.string (Marshal.to_string l.Launch.params []));
  Buffer.add_string b (Memory.digest l.Launch.memory);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- persistence ---------- *)

(* The whole trace record is pure data (flat arrays, the predecoded
   image's instruction forms carry no closures), so Marshal gives a
   faithful on-disk form; replaying a loaded trace reuses its embedded
   prepared image exactly like a resident one. *)
let to_bytes (t : t) = Marshal.to_string t []

let of_bytes s : t option =
  try Some (Marshal.from_string s 0) with Failure _ -> None
