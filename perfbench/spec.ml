(* BENCHMARK.json: the workloads and metrics this benchmark defines, the
   limits the file must stay within, and which end-to-end metric each
   per-layer metric is expected to move. *)

type metric =
  { name : string
  ; unit_ : string
  ; better : Stat.better
  ; bound : float option  (** end-to-end metrics only *)
  }

type t =
  { command : string list
  ; paths : string list
  ; run_seconds : int
  ; workloads : (string * string) list  (** name, why *)
  ; end_to_end : metric list
  ; per_layer : metric list
  }

(* Per-layer metric prefix -> the (end-to-end metric, workload) pairs a
   change to that layer should move. Written down before any
   optimisation is measured, so a claimed gain can be checked against
   the prediction (and a layer metric that moves nothing is visible). *)
let moves =
  [ ("ptx.digest", [ ("wall_s", "serve-warm"); ("wall_s", "sweep") ])
  ; ("workloads.kernel", [ ("wall_s", "compile"); ("wall_s", "sweep") ])
  ; ("workloads.launch", [ ("wall_s", "serve-warm"); ("wall_s", "sweep") ])
  ; ( "regalloc.allocate"
    , [ ("wall_s", "compile"); ("points_per_s", "compile"); ("wall_s", "sweep") ] )
  ; ("machine.scalarize", [ ("wall_s", "compile") ])
  ; ( "core.resource"
    , [ ("wall_s", "compile"); ("wall_s", "serve-warm"); ("wall_s", "sweep") ] )
  ; ("core.opttlp_static", [ ("wall_s", "compile") ])
  ; ("core.engine_allocate", [ ("wall_s", "serve-warm") ])
  ; ("core.sim_key", [ ("points_per_s", "serve-warm") ])
  ; ("gpusim.launch_key", [ ("wall_s", "sweep"); ("wall_s", "serve-warm") ])
  ; ("gpusim.memory_copy", [ ("wall_s", "sweep") ])
  ; ("gpusim.sm_record", [ ("wall_s", "sweep"); ("wall_s", "serve-cold") ])
  ; ("gpusim.sm_replay", [ ("wall_s", "sweep"); ("wall_s", "serve-cold") ])
  ; ("gpusim.trace_encode", [ ("wall_s", "serve-cold") ])
  ; ("gpusim.trace_events", [ ("wall_s", "serve-cold") ])
  ; ("store.put", [ ("wall_s", "serve-cold") ])
  ; ("store.get", [ ("points_per_s", "serve-warm"); ("wall_s", "serve-warm") ])
  ; ("store.open", [ ("setup_s", "serve-warm") ])
  ; ("store", [ ("wall_s", "serve-cold"); ("peak_rss_mb", "serve-cold") ])
  ; ("serve.frame", [ ("points_per_s", "serve-warm") ])
  ; ("serve.request", [ ("points_per_s", "serve-warm"); ("wall_s", "serve-warm") ])
  ; ("serve.residual", [ ("points_per_s", "serve-warm") ])
  ; ("engine", [ ("points_per_s", "sweep"); ("points_per_s", "compile") ])
  ; ("daemon", [ ("points_per_s", "serve-cold"); ("points_per_s", "serve-warm") ])
  ; ("trace", [ ("wall_s", "sweep"); ("wall_s", "compile") ])
  ]

let is_prefix ~prefix s =
  s = prefix
  || String.length s > String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
     && s.[String.length prefix] = '.'

(* Longest [moves] prefix of a layer metric's name. *)
let moves_of name =
  List.fold_left
    (fun best (p, m) ->
      if is_prefix ~prefix:p name then
        match best with
        | Some (bp, _) when String.length bp >= String.length p -> best
        | _ -> Some (p, m)
      else best)
    None moves
  |> Option.map snd

(* ---------- lexical limits ---------- *)

let all_chars ok s = String.for_all ok s

let alnum c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
  | _ -> false

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && alnum s.[0]
  && all_chars (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && all_chars
       (fun c -> alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let valid_path s =
  String.length s >= 1
  && String.length s <= 200
  && s.[0] <> '/'
  && all_chars (fun c -> alnum c || c = '_' || c = '.' || c = '-' || c = '/') s
  && not (List.mem ".." (String.split_on_char '/' s))

let max_file_bytes = 64 * 1024

(* ---------- parsing and checking ---------- *)

let keys_exactly what expected kv =
  let got = List.sort compare (List.map fst kv) in
  if got = List.sort compare expected then []
  else
    [ Printf.sprintf "%s must have exactly the keys %s (has %s)" what
        (String.concat ", " expected) (String.concat ", " got) ]

let better_of = function
  | "lower" -> Stat.Lower
  | "higher" -> Stat.Higher
  | s -> raise (Json.Parse_error ("better must be lower or higher, not " ^ s))

let metric ~with_bound j =
  { name = Json.to_str (Json.member "name" j)
  ; unit_ = Json.to_str (Json.member "unit" j)
  ; better = better_of (Json.to_str (Json.member "better" j))
  ; bound = (if with_bound then Some (Json.to_num (Json.member "bound" j)) else None)
  }

let parse j =
  let m k = Json.member k j in
  { command = List.map Json.to_str (Json.to_list (m "command"))
  ; paths = List.map Json.to_str (Json.to_list (m "paths"))
  ; run_seconds = int_of_float (Json.to_num (m "run_seconds"))
  ; workloads =
      List.map
        (fun w -> (Json.to_str (Json.member "name" w), Json.to_str (Json.member "why" w)))
        (Json.to_list (m "workloads"))
  ; end_to_end = List.map (metric ~with_bound:true) (Json.to_list (m "end_to_end"))
  ; per_layer = List.map (metric ~with_bound:false) (Json.to_list (m "per_layer"))
  }

let count_in what lo hi l =
  let n = List.length l in
  if n < lo || n > hi then [ Printf.sprintf "%s: %d entries, allowed %d..%d" what n lo hi ]
  else []

let duplicates names =
  let rec go seen = function
    | [] -> []
    | x :: rest -> if List.mem x seen then x :: go seen rest else go (x :: seen) rest
  in
  go [] names

let check_exn (j : Json.t) =
    let shape =
      keys_exactly "BENCHMARK.json"
        [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
        (Json.to_obj j)
      @ List.concat_map
          (fun w -> keys_exactly "a workload" [ "name"; "why" ] (Json.to_obj w))
          (Json.to_list (Json.member "workloads" j))
      @ List.concat_map
          (fun e -> keys_exactly "an end_to_end metric" [ "name"; "unit"; "better"; "bound" ]
                      (Json.to_obj e))
          (Json.to_list (Json.member "end_to_end" j))
      @ List.concat_map
          (fun e -> keys_exactly "a per_layer metric" [ "name"; "unit"; "better" ]
                      (Json.to_obj e))
          (Json.to_list (Json.member "per_layer" j))
    in
    if shape <> [] then shape
    else
        let s = parse j in
        let metrics = s.end_to_end @ s.per_layer in
        let wnames = List.map fst s.workloads in
        let enames = List.map (fun m -> m.name) s.end_to_end in
        let errs = ref [] in
        let err fmt = Printf.ksprintf (fun e -> errs := e :: !errs) fmt in
        if s.run_seconds < 1 || s.run_seconds > 60
           || Json.to_num (Json.member "run_seconds" j) <> float_of_int s.run_seconds
        then err "run_seconds must be a whole number in 1..60";
        List.iter
          (fun c ->
            if String.length c > 200 then err "command argument longer than 200";
            if String.length c > 0 && c.[0] = '/' then err "absolute path in command: %s" c;
            if List.mem ".." (String.split_on_char '/' c) then
              err "command leaves the repository: %s" c)
          s.command;
        List.iter (fun p -> if not (valid_path p) then err "bad path %S" p) s.paths;
        List.iter
          (fun (n, why) ->
            if not (valid_name n) then err "bad workload name %S" n;
            if String.length why > 200 || String.contains why '\n' || why = "" then
              err "workload %s: why must be one line of at most 200 characters" n)
          s.workloads;
        List.iter
          (fun m ->
            if not (valid_name m.name) then err "bad metric name %S" m.name;
            if not (valid_unit m.unit_) then err "metric %s: bad unit %S" m.name m.unit_)
          metrics;
        List.iter
          (fun m ->
            match m.bound with
            | Some b when b >= 0. && b <= 0.25 -> ()
            | _ -> err "metric %s: bound must be within 0..0.25" m.name)
          s.end_to_end;
        List.iter (err "duplicate name %s") (duplicates (List.map (fun m -> m.name) metrics));
        List.iter (err "duplicate workload %s") (duplicates wnames);
        (match List.find_opt (fun m -> m.name = "setup_s") s.end_to_end with
         | Some m ->
           if m.unit_ <> "s" || m.better <> Stat.Lower then
             err "setup_s must be in s with better = lower";
           let largest =
             List.fold_left (fun a e -> Float.max a (Option.value ~default:0. e.bound))
               0. s.end_to_end
           in
           if m.bound <> Some largest then err "setup_s must have the largest bound"
         | None -> err "no setup_s end-to-end metric");
        List.iter
          (fun m ->
            match moves_of m.name with
            | None -> err "layer metric %s names no end-to-end metric it should move" m.name
            | Some pairs ->
              List.iter
                (fun (e, w) ->
                  if not (List.mem e enames) then
                    err "layer metric %s moves unknown end-to-end metric %s" m.name e;
                  if not (List.mem w wnames) then
                    err "layer metric %s moves unknown workload %s" m.name w)
                pairs)
          s.per_layer;
        count_in "paths" 1 16 s.paths
        @ count_in "command" 1 32 s.command
        @ count_in "workloads" 2 8 s.workloads
        @ count_in "end_to_end" 1 16 s.end_to_end
        @ count_in "per_layer" 1 128 s.per_layer
        @ List.rev !errs

(* Every violation of the limits BENCHMARK.json must respect; [] when
   the file is acceptable. *)
let check j = try check_exn j with Json.Parse_error e -> [ e ]

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  if String.length text > max_file_bytes then
    failwith (path ^ ": larger than 64 KiB");
  let j = Json.of_string text in
  match check j with
  | [] -> parse j
  | errs -> failwith (path ^ ": " ^ String.concat "; " errs)
