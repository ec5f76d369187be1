(* On-disk layout:

     DIR/MANIFEST                       "<kind> <key> <size> <atime>\n" per entry
     DIR/tmp/<pid>.<seq>                in-flight writes (cleaned at open)
     DIR/objects/<kind>/<k2>/<key>      one file per entry, k2 = key[0..1]

   Entry file = header line + payload:

     CRATSTORE1 <md5-hex-of-payload> <payload-bytes>\n<payload>

   The header makes every entry self-verifying, so the manifest is pure
   advice (sizes + LRU recency) and the directory scan at open is the
   ground truth. Access times are a logical clock (a per-store counter),
   not wall time, so LRU order survives marshalling through the manifest
   and never goes backwards. *)

let magic = "CRATSTORE1"
let default_budget = 512 * 1024 * 1024

type entry =
  { ekind : string
  ; ekey : string
  ; size : int  (** whole file size: header + payload *)
  ; mutable atime : int
  }

type stats =
  { entries : int
  ; bytes : int
  ; budget : int
  ; hits : int
  ; misses : int
  ; puts : int
  ; evictions : int
  ; corrupt : int
  }

type t =
  { root : string
  ; budget : int
  ; lock : Mutex.t
  ; index : (string * string, entry) Hashtbl.t
  ; mutable total : int
  ; mutable clock : int
  ; mutable tmp_seq : int
  ; mutable dirty : int  (* index changes since the last manifest save *)
  ; mutable closed : bool
  ; mutable hits : int
  ; mutable misses : int
  ; mutable puts : int
  ; mutable evictions : int
  ; mutable corrupt : int
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then invalid_arg "Store: store is closed"

(* keys become file names verbatim, so restrict them to a safe alphabet
   and ban a leading '.' (which would admit "." and ".." and let a name
   escape objects/); the engine's keys are hex digests and always pass *)
let check_name what s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '.'
  in
  if s = "" || s.[0] = '.' || not (String.for_all ok s) then
    invalid_arg (Printf.sprintf "Store: invalid %s %S" what s)

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let ( / ) = Filename.concat
let objects_dir t = t.root / "objects"
let tmp_dir t = t.root / "tmp"
let manifest_path t = t.root / "MANIFEST"

let entry_path t ~kind ~key =
  let shard = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  objects_dir t / kind / shard / key

(* ---------- manifest ---------- *)

let write_file_atomic t path contents =
  let tmp = tmp_dir t / Printf.sprintf "%d.m%d" (Unix.getpid ()) t.tmp_seq in
  t.tmp_seq <- t.tmp_seq + 1;
  let oc = open_out_bin tmp in
  output_string oc contents;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path

(* caller holds the lock *)
let save_manifest t =
  let b = Buffer.create 4096 in
  Hashtbl.iter
    (fun _ e -> Printf.bprintf b "%s %s %d %d\n" e.ekind e.ekey e.size e.atime)
    t.index;
  write_file_atomic t (manifest_path t) (Buffer.contents b);
  t.dirty <- 0

(* The manifest is advisory (sizes + LRU recency; the directory scan at
   open is the ground truth), so it need not be rewritten — O(entries)
   of disk I/O — on every put. Persist it every so many index changes;
   {!close} always saves. *)
let manifest_save_interval = 32

(* caller holds the lock *)
let save_manifest_debounced t =
  if t.dirty >= manifest_save_interval then save_manifest t

let load_manifest path =
  let tbl = Hashtbl.create 64 in
  (if Sys.file_exists path then
     try
       In_channel.with_open_bin path (fun ic ->
         try
           while true do
             match String.split_on_char ' ' (input_line ic) with
             | [ kind; key; _size; atime ] ->
               (match int_of_string_opt atime with
                | Some a -> Hashtbl.replace tbl (kind, key) a
                | None -> ())
             | _ -> ()
           done
         with End_of_file -> ())
     with Sys_error _ -> ());
  tbl

(* ---------- open ---------- *)

let scan t recency =
  let objects = objects_dir t in
  Array.iter
    (fun kind ->
       let kdir = objects / kind in
       if Sys.is_directory kdir then
         Array.iter
           (fun shard ->
              let sdir = kdir / shard in
              if Sys.is_directory sdir then
                Array.iter
                  (fun key ->
                     let path = sdir / key in
                     match Unix.stat path with
                     | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
                       let atime =
                         Option.value ~default:0
                           (Hashtbl.find_opt recency (kind, key))
                       in
                       Hashtbl.replace t.index (kind, key)
                         { ekind = kind; ekey = key; size = st_size; atime };
                       t.total <- t.total + st_size;
                       if atime >= t.clock then t.clock <- atime + 1
                     | _ | (exception Unix.Unix_error _) -> ())
                  (Sys.readdir sdir))
           (Sys.readdir kdir))
    (Sys.readdir objects)

let open_ ?(budget = default_budget) root =
  let t =
    { root
    ; budget
    ; lock = Mutex.create ()
    ; index = Hashtbl.create 256
    ; total = 0
    ; clock = 1
    ; tmp_seq = 0
    ; dirty = 0
    ; closed = false
    ; hits = 0
    ; misses = 0
    ; puts = 0
    ; evictions = 0
    ; corrupt = 0
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  (* a writer killed mid-write leaves its temp file behind; entries are
     only ever visible post-rename, so stale temps are pure garbage *)
  Array.iter
    (fun f -> try Sys.remove (tmp_dir t / f) with Sys_error _ -> ())
    (Sys.readdir (tmp_dir t));
  scan t (load_manifest (manifest_path t));
  t

let budget t = t.budget
let bytes t = locked t (fun () -> t.total)

(* ---------- read path ---------- *)

(* Read and verify one entry file. *)
let read_verified path =
  match
    In_channel.with_open_bin path (fun ic ->
      let header = input_line ic in
      match String.split_on_char ' ' header with
      | [ m; md5; len ] when m = magic ->
        (match int_of_string_opt len with
         | Some n when n >= 0 ->
           let payload = really_input_string ic n in
           (* the header line consumed the trailing '\n'; any extra
              bytes mean a torn or overwritten file *)
           if
             In_channel.pos ic = In_channel.length ic
             && Digest.to_hex (Digest.string payload) = md5
           then Some payload
           else None
         | _ -> None)
      | _ -> None)
  with
  | v -> v
  | exception (Sys_error _ | End_of_file) -> None

let drop_entry t e =
  Hashtbl.remove t.index (e.ekind, e.ekey);
  t.total <- t.total - e.size;
  try Sys.remove (entry_path t ~kind:e.ekind ~key:e.ekey)
  with Sys_error _ -> ()

(* caller holds the lock: refresh the entry's recency, or count a miss *)
let touch t ~kind ~key =
  match Hashtbl.find_opt t.index (kind, key) with
  | None ->
    t.misses <- t.misses + 1;
    false
  | Some e ->
    e.atime <- t.clock;
    t.clock <- t.clock + 1;
    true

let get t ~kind ~key =
  check_name "kind" kind;
  check_name "key" key;
  if not (locked t (fun () -> check_open t; touch t ~kind ~key)) then None
  else
    match read_verified (entry_path t ~kind ~key) with
    | Some payload ->
      locked t (fun () -> t.hits <- t.hits + 1);
      Some payload
    | None ->
      (* checksum or length mismatch: disk-level corruption. Drop the
         entry so the key reads as a clean miss from now on. *)
      locked t (fun () ->
        t.corrupt <- t.corrupt + 1;
        t.misses <- t.misses + 1;
        Option.iter (drop_entry t) (Hashtbl.find_opt t.index (kind, key)));
      None

let mem t ~kind ~key =
  check_name "kind" kind;
  check_name "key" key;
  locked t (fun () ->
    check_open t;
    Hashtbl.mem t.index (kind, key))

(* ---------- write path ---------- *)

(* caller holds the lock *)
let enforce_budget t =
  if t.total > t.budget then begin
    let victims =
      Hashtbl.fold (fun _ e acc -> e :: acc) t.index []
      |> List.sort (fun a b -> compare a.atime b.atime)
    in
    let rec go = function
      | _ when t.total <= t.budget -> ()
      | [] -> ()
      | e :: rest ->
        drop_entry t e;
        t.evictions <- t.evictions + 1;
        go rest
    in
    go victims
  end

let put t ~kind ~key payload =
  check_name "kind" kind;
  check_name "key" key;
  let already =
    locked t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.index (kind, key) with
      | Some e ->
        (* immutable content-addressed entries: refresh recency only *)
        e.atime <- t.clock;
        t.clock <- t.clock + 1;
        true
      | None -> false)
  in
  if not already then begin
    let header =
      Printf.sprintf "%s %s %d\n" magic
        (Digest.to_hex (Digest.string payload))
        (String.length payload)
    in
    let size = String.length header + String.length payload in
    let path = entry_path t ~kind ~key in
    mkdir_p (Filename.dirname path);
    (* write + fsync + rename outside the lock: the tmp name is unique
       (pid + per-store sequence), so concurrent puts never collide and
       readers of other keys are not serialized behind disk I/O. Two
       racing puts of the same key rename identical content-addressed
       files over each other, which is harmless. *)
    let tmp =
      locked t (fun () ->
        let n = t.tmp_seq in
        t.tmp_seq <- t.tmp_seq + 1;
        tmp_dir t / Printf.sprintf "%d.%d" (Unix.getpid ()) n)
    in
    let oc = open_out_bin tmp in
    output_string oc header;
    output_string oc payload;
    flush oc;
    (* fsync before rename: after a crash the entry either exists
       whole or not at all, never as an empty or torn file *)
    (try Unix.fsync (Unix.descr_of_out_channel oc)
     with Unix.Unix_error _ -> ());
    close_out oc;
    Sys.rename tmp path;
    locked t (fun () ->
      (match Hashtbl.find_opt t.index (kind, key) with
       | Some e ->
         (* a concurrent put of the same key beat us to the index;
            count the entry's size once and refresh its recency *)
         e.atime <- t.clock
       | None ->
         Hashtbl.replace t.index (kind, key)
           { ekind = kind
           ; ekey = key
           ; size
           ; atime = t.clock
           };
         t.total <- t.total + size);
      t.clock <- t.clock + 1;
      t.puts <- t.puts + 1;
      t.dirty <- t.dirty + 1;
      enforce_budget t;
      save_manifest_debounced t)
  end

let delete t ~kind ~key =
  check_name "kind" kind;
  check_name "key" key;
  locked t (fun () ->
    check_open t;
    match Hashtbl.find_opt t.index (kind, key) with
    | Some e -> drop_entry t e
    | None -> ())

(* ---------- typed helpers ---------- *)

let put_value t ~kind ~key v = put t ~kind ~key (Marshal.to_string v [])

let get_value t ~kind ~key =
  match get t ~kind ~key with
  | None -> None
  | Some s -> ( try Some (Marshal.from_string s 0) with Failure _ -> None)

(* ---------- observability, lifecycle ---------- *)

let stats t =
  locked t (fun () ->
    { entries = Hashtbl.length t.index
    ; bytes = t.total
    ; budget = t.budget
    ; hits = t.hits
    ; misses = t.misses
    ; puts = t.puts
    ; evictions = t.evictions
    ; corrupt = t.corrupt
    })

let close t =
  locked t (fun () ->
    if not t.closed then begin
      save_manifest t;
      t.closed <- true;
      Hashtbl.reset t.index;
      t.total <- 0
    end)
