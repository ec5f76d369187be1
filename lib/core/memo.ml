type 'v slot =
  | Ready of 'v
  | Pending
  | Claimed

(* A table cell: a ready value with its weight, or an owner's claim. *)
type 'v cell =
  | Value of 'v * int
  | Claim

type 'v t =
  { lock : Mutex.t
  ; cond : Condition.t  (* broadcast whenever a claim resolves *)
  ; tbl : (string, 'v cell) Hashtbl.t
  ; order : string Queue.t  (* ready keys, oldest first *)
  ; budget : int
  ; weight : 'v -> int
  ; store : (Store.t * string) option  (* with the kind it writes under *)
  ; mutable total : int  (* summed weight of ready values *)
  }

let create ?(budget = max_int) ?(weight = fun _ -> 1) ?store () =
  { lock = Mutex.create ()
  ; cond = Condition.create ()
  ; tbl = Hashtbl.create 64
  ; order = Queue.create ()
  ; budget
  ; weight
  ; store
  ; total = 0
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Under the lock: make [k] ready (a value already there wins — keys are
   content addresses, so both are the same answer) and wake waiters. *)
let install t k v w =
  (match Hashtbl.find_opt t.tbl k with
   | Some (Value _) -> ()
   | Some Claim | None ->
     if w > t.budget then Hashtbl.remove t.tbl k
     else begin
       while t.total + w > t.budget && not (Queue.is_empty t.order) do
         let old = Queue.pop t.order in
         match Hashtbl.find_opt t.tbl old with
         | Some (Value (_, ow)) ->
           t.total <- t.total - ow;
           Hashtbl.remove t.tbl old
         | Some Claim | None -> ()
       done;
       Hashtbl.replace t.tbl k (Value (v, w));
       Queue.push k t.order;
       t.total <- t.total + w
     end);
  Condition.broadcast t.cond

let publish t k v =
  let w = t.weight v in
  locked t (fun () -> install t k v w);
  Option.iter (fun (d, kind) -> Store.put_value d ~kind ~key:k v) t.store

(* A store hit is installed without being written back. *)
let load t k =
  match t.store with
  | None -> None
  | Some (d, kind) ->
    Option.map
      (fun v ->
         let w = t.weight v in
         locked t (fun () -> install t k v w);
         v)
      (Store.get_value d ~kind ~key:k)

let abandon t k =
  locked t (fun () ->
    match Hashtbl.find_opt t.tbl k with
    | Some Claim ->
      Hashtbl.remove t.tbl k;
      Condition.broadcast t.cond
    | Some (Value _) | None -> ())

let claim ?(fetch = true) t keys =
  let slots =
    locked t (fun () ->
      List.map
        (fun k ->
           match Hashtbl.find_opt t.tbl k with
           | Some (Value (v, _)) -> Ready v
           | Some Claim -> Pending
           | None ->
             Hashtbl.replace t.tbl k Claim;
             Claimed)
        keys)
  in
  let ours = function Claimed -> true | Ready _ | Pending -> false in
  if (not fetch) || Option.is_none t.store then slots
  else
    let load_ours k s =
      if not (ours s) then s
      else match load t k with Some v -> Ready v | None -> Claimed
    in
    match List.map2 load_ours keys slots with
    | slots -> slots
    | exception e ->
      List.iter2 (fun k s -> if ours s then abandon t k) keys slots;
      raise e

let await t k =
  locked t (fun () ->
    let rec loop () =
      match Hashtbl.find_opt t.tbl k with
      | Some (Value (v, _)) -> Some v
      | Some Claim ->
        Condition.wait t.cond t.lock;
        loop ()
      | None -> None
    in
    loop ())

let find t k =
  match await t k with
  | Some _ as v -> v
  | None -> load t k

let rec get_or_compute ?(fetch = true) t k f =
  match claim ~fetch t [ k ] with
  | [ Ready v ] -> (v, `Hit)
  | [ Pending ] ->
    (match await t k with
     | Some v -> (v, `Waited)
     | None -> get_or_compute ~fetch t k f)
  | _ ->
    (match f () with
     | v ->
       publish t k v;
       (v, `Computed)
     | exception e ->
       abandon t k;
       raise e)

let clear t =
  locked t (fun () ->
    Hashtbl.reset t.tbl;
    Queue.clear t.order;
    t.total <- 0;
    Condition.broadcast t.cond)
