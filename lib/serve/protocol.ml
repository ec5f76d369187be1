(* Wire protocol of the crat daemon: length-prefixed frames over a
   Unix-domain socket. A frame is a 4-byte big-endian payload length
   followed by the marshalled message — all message types below are
   closure-free pure data, so [Marshal] round-trips them byte-exactly
   between any two binaries built from this source tree.

   Conversation shape: the client writes one request frame, then reads
   response frames until [Done] (or one terminal [Sweep_result] /
   [Stats_result] / [Error]). A [Simulate] request is answered with one
   [Result] frame per point, then [Done]; the daemon writes them only
   after the whole batch has been simulated, in request order ([index]
   is the point's request position). *)

(* One simulation point over the built-in workload suite. [regs]
   defaults to the app's nvcc-like default register count, [tlp] to the
   occupancy maximum at that count; [kepler] selects the Kepler-like
   configuration (Fermi-like otherwise). *)
type point =
  { abbr : string
  ; regs : int option
  ; tlp : int option
  ; kepler : bool
  }

let point ?(regs = None) ?(tlp = None) ?(kepler = false) abbr =
  { abbr; regs; tlp; kepler }

type request =
  | Simulate of point list
  | Sweep of { kind : string; apps : string list }
      (** server-side report sweep: [kind] is ["verify"], ["lint"],
          ["sanitize"] or ["equiv"]; [apps = []] means the whole suite *)
  | Stats
  | Shutdown

(* The stats endpoint's payload: daemon counters + engine report +
   persistent-store footprint. *)
type server_stats =
  { uptime_s : float
  ; connections : int
  ; requests : int
  ; points : int  (** simulation points served (including dedup'd ones) *)
  ; dedup_hits : int
      (** points answered by waiting on another client's in-flight
          computation of the same point (the engine's [dedup_hits]) *)
  ; sim_runs : int
  ; sim_hits : int
  ; trace_records : int
  ; trace_replays : int
  ; alloc_runs : int
  ; alloc_hits : int
  ; store_entries : int
  ; store_bytes : int
  ; store_budget : int
  ; store_hits : int
  ; store_misses : int
  ; store_evictions : int
  }

(* fraction of points that needed no cold functional execution *)
let hit_rate s =
  let total = s.sim_runs + s.sim_hits in
  if total = 0 then 1.0
  else
    float_of_int (s.sim_hits + s.trace_replays) /. float_of_int total

type response =
  | Result of { index : int; stats : Gpusim.Stats.t }
  | Sweep_result of { text : string; failed : bool }
  | Stats_result of server_stats
  | Done
  | Error of string

(* ---------- framing ---------- *)

let max_frame = 256 * 1024 * 1024

(* A whole-suite point list is a few KB; a request header claiming more
   than this is rejected before anything is allocated for it. *)
let max_request = 1024 * 1024

exception Protocol_error of string

let write_frame oc (v : 'a) =
  let s = Marshal.to_string v [] in
  output_binary_int oc (String.length s);
  output_string oc s;
  flush oc

let read_frame ?(limit = max_frame) ic : 'a =
  let n = input_binary_int ic in
  if n < 0 || n > limit then
    raise (Protocol_error (Printf.sprintf "bad frame length %d" n));
  let s = really_input_string ic n in
  try (Marshal.from_string s 0 : 'a)
  with Failure msg -> raise (Protocol_error ("unmarshal: " ^ msg))

let write_request oc (r : request) = write_frame oc r
let read_request ic : request = read_frame ~limit:max_request ic
let write_response oc (r : response) = write_frame oc r
let read_response ic : response = read_frame ic

let default_socket = "crat.sock"
let default_store = "crat-store"
