type shape =
  | Tiled
  | Streaming
  | Stencil
  | Shared_tile
  | Reduction
  | Gather

type input =
  { ilabel : string
  ; ws_words : int
  ; iters : int
  ; passes : int
  ; num_blocks : int
  ; seed : int
  }

type t =
  { abbr : string
  ; app_name : string
  ; kernel_name : string
  ; suite_name : string
  ; sensitive : bool
  ; block_size : int
  ; default_regs : int
  ; shape : shape
  ; knobs : Shapes.knobs
  ; shm_words : int
  ; inputs : input list
  }

let build a =
  let name = a.kernel_name in
  match a.shape with
  | Tiled -> Shapes.tiled_reuse ~name a.knobs
  | Streaming -> Shapes.streaming ~name a.knobs
  | Stencil -> Shapes.stencil3 ~name a.knobs
  | Shared_tile -> Shapes.shared_tile ~name ~shm_words:a.shm_words a.knobs
  | Reduction -> Shapes.reduction ~name ~shm_words:a.shm_words a.knobs
  | Gather -> Shapes.gather ~name a.knobs

(* One value per distinct builder input, built on first use. Worker
   domains share the table, so it sits behind a mutex; a value is built
   under the lock, which makes every caller of one key get the same
   physical value. *)
let shared () =
  let tbl = Hashtbl.create 32 and lock = Mutex.create () in
  fun key build ->
    Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tbl key with
      | Some v -> v
      | None ->
        let v = build () in
        Hashtbl.add tbl key v;
        v)

let kernels = shared ()
let kernel a = kernels (a.kernel_name, a.shape, a.knobs, a.shm_words) (fun () -> build a)

let default_input a =
  match a.inputs with
  | i :: _ -> i
  | [] -> invalid_arg (a.abbr ^ ": no inputs")

let find_input a label =
  match List.find_opt (fun i -> i.ilabel = label) a.inputs with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "%s: unknown input %s" a.abbr label)

let uses_aux a =
  match a.shape with
  | Gather -> true
  | Tiled | Streaming | Stencil | Shared_tile | Reduction -> false

(* keyed by exactly the fields the image reads *)
let images = shared ()

let memory a (i : input) =
  let aux = uses_aux a in
  images (aux, i.num_blocks, i.ws_words, i.seed) (fun () ->
    (* +32: per-block region padding (see Shapes prologue) *)
    let words = i.num_blocks * (i.ws_words + 32) in
    let m = Gpusim.Memory.create () in
    Gpusim.Memory.write_f32_array m ~base:Data.inp_base
      (Data.uniform_f32 ~seed:i.seed words);
    if aux then
      Gpusim.Memory.write_u32_array m ~base:Data.aux_base
        (Data.uniform_u32 ~seed:(i.seed + 7) ~bound:(max 1 i.ws_words) i.ws_words);
    Gpusim.Memory.freeze m;
    m)

let params a (i : input) =
  let base =
    [ ("inp", Gpusim.Value.I Data.inp_base)
    ; ("out", Gpusim.Value.I Data.out_base)
    ; ("ws", Gpusim.Value.of_int i.ws_words)
    ; ("iters", Gpusim.Value.of_int i.iters)
    ; ("passes", Gpusim.Value.of_int i.passes)
    ]
  in
  if uses_aux a then base @ [ ("aux", Gpusim.Value.I Data.aux_base) ] else base

let int_params a i =
  List.filter_map
    (fun (n, v) ->
       match v with
       | Gpusim.Value.I x -> Some (n, x)
       | Gpusim.Value.F _ -> None)
    (params a i)

let shared_decl_bytes a = Ptx.Kernel.shared_bytes (kernel a)

let output_words a (i : input) = a.block_size * i.num_blocks

let launch a ?kernel:k ?(tlp = 1) ~input () =
  let kern =
    match k with
    | Some k -> k
    | None -> kernel a
  in
  Gpusim.Launch.make ~kernel:kern ~block_size:a.block_size
    ~num_blocks:input.num_blocks ~tlp_limit:tlp ~params:(params a input)
    (memory a input)

let pp fmt a =
  Format.fprintf fmt "%-5s %-14s %-22s %-8s %s (block=%d, shm=%dB)" a.abbr
    a.app_name a.kernel_name a.suite_name
    (if a.sensitive then "sensitive" else "insensitive")
    a.block_size (a.shm_words * 4)
