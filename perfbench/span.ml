(* Spans around calls into the library's public functions, made from
   the benchmark's own code. Spans never nest: each one is a leaf, so
   their sum over a traced pass is the share of its wall time the
   layers account for ([trace.coverage]). *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Wall seconds of [f ()]. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

type acc =
  { mutable s : float
  ; mutable calls : int
  ; mutable work : float  (** bytes, instructions, ... per the layer *)
  }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32
let enabled = ref false

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { s = 0.; calls = 0; work = 0. } in
    Hashtbl.replace table name a;
    a

(* Time [f ()] under [name] when tracing; [work] measures the unit of
   throughput from the result (e.g. bytes digested). *)
let span ?work name f =
  if not !enabled then f ()
  else begin
    let r, dt = timed f in
    let a = acc name in
    a.s <- a.s +. dt;
    a.calls <- a.calls + 1;
    (match work with Some w -> a.work <- a.work +. w r | None -> ());
    r
  end

let reset () = Hashtbl.reset table

(* Totals of the spans recorded since the last [reset]. *)
let snapshot () =
  Hashtbl.fold (fun k a l -> (k, (a.s, a.calls, a.work)) :: l) table []

let total_seconds snap = List.fold_left (fun acc (_, (s, _, _)) -> acc +. s) 0. snap
