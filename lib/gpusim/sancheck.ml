type bound =
  | Segment of
      { lo : int
      ; hi : int
      }
  | Per_thread of
      { base : int
      ; stride : int
      }

type claim =
  | Proven_safe of bound
  | Proven_oob of bound
  | Residual of bound

type t =
  { claims : claim option array
  ; force : bool
  }

let make ?(force = false) ~num_instrs claims =
  let a = Array.make (max 1 num_instrs) None in
  List.iter
    (fun (pc, c) ->
       if pc >= 0 && pc < Array.length a then a.(pc) <- Some c)
    claims;
  { claims = a; force }

let claim_at t pc =
  if pc < 0 || pc >= Array.length t.claims then None else t.claims.(pc)

let is_empty t = Array.for_all Option.is_none t.claims

type violation =
  { v_pc : int
  ; v_lane : int
  ; v_tid : int
  ; v_addr : int64
  }

type stat =
  { mutable seen : int
  ; mutable checked : int
  ; mutable violations : int
  ; mutable first : violation option
  }

type counters = (int, stat) Hashtbl.t

let counters () : counters = Hashtbl.create 16

let stat (c : counters) pc =
  match Hashtbl.find_opt c pc with
  | Some s -> s
  | None ->
    let s = { seen = 0; checked = 0; violations = 0; first = None } in
    Hashtbl.add c pc s;
    s

let stats (c : counters) =
  List.sort
    (fun (a, _) (b, _) -> Stdlib.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c [])

let sum f (c : counters) = Hashtbl.fold (fun _ s acc -> acc + f s) c 0
let seen c = sum (fun s -> s.seen) c
let checked c = sum (fun s -> s.checked) c
let violations c = sum (fun s -> s.violations) c

let first_violation (c : counters) =
  Hashtbl.fold
    (fun _ s acc ->
       match (acc, s.first) with
       | None, v -> v
       | Some _, None -> acc
       | Some a, Some b -> if b.v_pc < a.v_pc then Some b else acc)
    c None

type runtime =
  { mask : t
  ; counters : counters
  }

let runtime mask = { mask; counters = counters () }

let within ~lo ~hi ~width rel =
  Int64.compare (Int64.of_int lo) rel <= 0
  && Int64.compare (Int64.add rel (Int64.of_int width)) (Int64.of_int hi) <= 0

let test b ~tid ~width rel =
  match b with
  | Segment { lo; hi } -> within ~lo ~hi ~width rel
  | Per_thread { base; stride } ->
    let lo = base + (tid * stride) in
    within ~lo ~hi:(lo + stride) ~width rel

let check rt ~pc ~lane ~tid ~width ~rel =
  match claim_at rt.mask pc with
  | None -> true
  | Some c ->
    let s = stat rt.counters pc in
    s.seen <- s.seen + 1;
    let armed_bound =
      match c with
      | Proven_safe b -> if rt.mask.force then Some b else None
      | Proven_oob b | Residual b -> Some b
    in
    (match armed_bound with
     | None -> true
     | Some b ->
       s.checked <- s.checked + 1;
       if test b ~tid ~width rel then true
       else begin
         s.violations <- s.violations + 1;
         if s.first = None then
           s.first <- Some { v_pc = pc; v_lane = lane; v_tid = tid; v_addr = rel };
         false
       end)
