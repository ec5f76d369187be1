(* Paged flat value store.

   The simulated memory is word-granular: each 4-byte-aligned address
   holds one full value (the interpreter never splits a value across
   addresses — wide types simply stride by their width). The hot
   representation is a page table of flat chunks: 1024 word slots per
   page, each slot a raw 64-bit pattern in a [float array] (unboxed
   flat storage) plus a meta byte recording whether the slot was
   written and whether the stored value was float-tagged (the tag is
   observable only through predicate reads, see {!Value}). A one-entry
   page cache makes streaming access a couple of array ops. Unaligned
   or out-of-range addresses — absent from every shipped workload —
   fall back to a boxed side table with identical semantics. A frozen
   image's reads leave the page cache alone, so domains can share it. *)

let page_bits = 10
let page_slots = 1 lsl page_bits
let slot_mask = page_slots - 1

type page = {
  vals : float array; (* raw 64-bit patterns, [Int64.float_of_bits] *)
  meta : Bytes.t; (* per slot: bit0 = written, bit1 = float-tagged *)
}

type t = {
  pages : (int, page) Hashtbl.t;
  side : (int64, Value.t) Hashtbl.t; (* unaligned / negative / huge addrs *)
  mutable last_idx : int;
  mutable last_page : page;
  mutable count : int; (* distinct written locations *)
  mutable frozen : Digest.t option; (* [Some d]: read-only, with digest [d] *)
}

let new_page () =
  { vals = Array.make page_slots 0.0; meta = Bytes.make page_slots '\000' }

(* every absent page reads as this one; it is never written *)
let empty_page = new_page ()

let create () =
  { pages = Hashtbl.create 64
  ; side = Hashtbl.create 16
  ; last_idx = -1
  ; last_page = empty_page (* never indexed (-1 can't match) *)
  ; count = 0
  ; frozen = None
  }

let writable t = if Option.is_some t.frozen then invalid_arg "Memory: frozen image"

(* fits in the page table: non-negative, below 2^62 (so the word index
   fits an OCaml int) and 4-byte aligned *)
let[@inline] in_range addr =
  Int64.logand addr 0x4000_0000_0000_0003L = 0L && addr >= 0L

let[@inline] word_of addr = Int64.to_int (Int64.shift_right_logical addr 2)

(* page [idx], or [empty_page] when it does not exist; an existing page
   of a writable image becomes the cached page *)
let find_page t idx =
  match Hashtbl.find t.pages idx with
  | p ->
    if Option.is_none t.frozen then begin
      t.last_idx <- idx;
      t.last_page <- p
    end;
    p
  | exception Not_found -> empty_page

let[@inline] page_of t idx =
  if idx = t.last_idx then t.last_page else find_page t idx

let get_page t idx =
  match page_of t idx with
  | p when p != empty_page -> p
  | _ ->
    let p = new_page () in
    Hashtbl.replace t.pages idx p;
    t.last_idx <- idx;
    t.last_page <- p;
    p

(* The per-address code below is [@inline] so the warp-wide loops keep
   addresses and values unboxed; only the side table boxes. *)

let side_bits t addr =
  match Hashtbl.find_opt t.side addr with
  | Some v -> Value.to_bits v
  | None -> 0L

let side_isf t addr =
  match Hashtbl.find_opt t.side addr with
  | Some (Value.F _) -> true
  | Some (Value.I _) | None -> false

let side_store t addr ~isf bits =
  if not (Hashtbl.mem t.side addr) then t.count <- t.count + 1;
  Hashtbl.replace t.side addr
    (if isf then Value.F (Int64.float_of_bits bits) else Value.I bits)

(* the stored pattern at [addr] (as a float), and its float tag *)
let[@inline] load_raw t addr =
  if in_range addr then begin
    let word = word_of addr in
    Array.unsafe_get (page_of t (word lsr page_bits)).vals (word land slot_mask)
  end
  else Int64.float_of_bits (side_bits t addr)

let[@inline] load_isf t addr =
  if in_range addr then begin
    let word = word_of addr in
    Bytes.get_uint8 (page_of t (word lsr page_bits)).meta (word land slot_mask)
    land 2
    <> 0
  end
  else side_isf t addr

let[@inline] store_raw t addr ~isf x =
  if in_range addr then begin
    let word = word_of addr in
    let p = get_page t (word lsr page_bits) in
    let slot = word land slot_mask in
    let m = Bytes.get_uint8 p.meta slot in
    if m land 1 = 0 then t.count <- t.count + 1;
    Bytes.unsafe_set p.meta slot (Char.unsafe_chr (if isf then 3 else 1));
    Array.unsafe_set p.vals slot x
  end
  else side_store t addr ~isf (Int64.bits_of_float x)

let load_bits t addr = Int64.bits_of_float (load_raw t addr)
let store_bits t addr ~isf bits =
  writable t;
  store_raw t addr ~isf (Int64.float_of_bits bits)

let load_lanes t ~addrs ~lanes ~n d doff =
  let fmask = ref 0 in
  for k = 0 to n - 1 do
    let lane = Array.unsafe_get lanes k in
    let addr = Int64.bits_of_float (Array.unsafe_get addrs k) in
    Array.unsafe_set d (doff + lane) (load_raw t addr);
    if load_isf t addr then fmask := !fmask lor (1 lsl lane)
  done;
  !fmask

let store_lanes t ~isf ~addrs ~lanes ~n s soff =
  writable t;
  for k = 0 to n - 1 do
    let lane = Array.unsafe_get lanes k in
    store_raw t
      (Int64.bits_of_float (Array.unsafe_get addrs k))
      ~isf
      (Array.unsafe_get s (soff + lane))
  done

let read t addr ty =
  let bits = load_bits t addr in
  let isf = if ty = Ptx.Types.Pred then load_isf t addr else false in
  Value.of_bits ty (Value.truncate_bits ty ~isf bits)

let write t addr ty v =
  store_bits t addr
    ~isf:(Ptx.Types.is_float ty)
    (Value.truncate_bits ty ~isf:(Value.is_f v) (Value.to_bits v))

let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter
    (fun idx p ->
       Hashtbl.replace pages idx
         { vals = Array.copy p.vals; meta = Bytes.copy p.meta })
    t.pages;
  { pages
  ; side = Hashtbl.copy t.side
  ; last_idx = -1
  ; last_page = empty_page
  ; count = t.count
  ; frozen = None
  }

let value_at p slot =
  let bits = Int64.bits_of_float p.vals.(slot) in
  if Bytes.get_uint8 p.meta slot land 2 <> 0 then
    Value.F (Int64.float_of_bits bits)
  else Value.I bits

let addr_at idx slot = Int64.of_int (((idx lsl page_bits) lor slot) * 4)

let fold f t init =
  let acc = ref (Hashtbl.fold f t.side init) in
  Hashtbl.iter
    (fun idx p ->
       for slot = 0 to page_slots - 1 do
         if Bytes.get_uint8 p.meta slot land 1 <> 0 then
           acc := f (addr_at idx slot) (value_at p slot) !acc
       done)
    t.pages;
  !acc

let size t = t.count

let equal a b =
  let nonzero m =
    fold
      (fun k v acc -> if Value.equal v Value.zero then acc else (k, v) :: acc)
      m []
    |> List.sort (fun (k1, _) (k2, _) -> Int64.compare k1 k2)
  in
  let la = nonzero a and lb = nonzero b in
  List.length la = List.length lb
  && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && Value.equal v1 v2) la lb

(* Canonical content digest. [fold] iterates the page Hashtbl in bucket
   order, so it cannot key a content-addressed store; here pages are
   visited in sorted index order and slots ascending, and a slot
   contributes iff it is observably non-default (nonzero bits or
   float-tagged) — written-zero integer slots read back exactly like
   unwritten ones, so they must not perturb the digest. The boxed side
   table (disjoint address range) is appended in sorted address order
   under the same filter. *)
let compute_digest t =
  let b = Buffer.create 4096 in
  let add_entry addr bits isf =
    Buffer.add_int64_le b addr;
    Buffer.add_int64_le b bits;
    Buffer.add_char b (if isf then '\001' else '\000')
  in
  let idxs =
    List.sort compare (Hashtbl.fold (fun idx _ acc -> idx :: acc) t.pages [])
  in
  List.iter
    (fun idx ->
       let p = Hashtbl.find t.pages idx in
       for slot = 0 to page_slots - 1 do
         let m = Bytes.get_uint8 p.meta slot in
         let bits = Int64.bits_of_float p.vals.(slot) in
         let isf = m land 2 <> 0 in
         if bits <> 0L || isf then add_entry (addr_at idx slot) bits isf
       done)
    idxs;
  let side =
    List.sort
      (fun (a, _) (b, _) -> Int64.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.side [])
  in
  List.iter
    (fun (addr, v) ->
       let bits = Value.to_bits v in
       let isf = Value.is_f v in
       if bits <> 0L || isf then add_entry addr bits isf)
    side;
  Digest.string (Buffer.contents b)

let digest t =
  match t.frozen with
  | Some d -> d
  | None -> compute_digest t

let freeze t = if Option.is_none t.frozen then t.frozen <- Some (compute_digest t)

let write_f32_array t ~base xs =
  Array.iteri
    (fun i x ->
       write t (Int64.add base (Int64.of_int (i * 4))) Ptx.Types.F32 (Value.F x))
    xs

let write_u32_array t ~base xs =
  Array.iteri
    (fun i x ->
       write t
         (Int64.add base (Int64.of_int (i * 4)))
         Ptx.Types.U32
         (Value.I (Int64.of_int x)))
    xs

let read_f32_array t ~base n =
  Array.init n (fun i ->
    Value.to_float (read t (Int64.add base (Int64.of_int (i * 4))) Ptx.Types.F32))

let read_u32_array t ~base n =
  Array.init n (fun i ->
    Int64.to_int
      (Value.to_int64 (read t (Int64.add base (Int64.of_int (i * 4))) Ptx.Types.U32)))
