module Gate = Verify.Gate

let scalar backend ~block_size kernel =
  match (backend : Machine.Backend.t) with
  | Machine.Backend.Ptx -> ((fun _ -> false), 0)
  | Machine.Backend.Machine ->
    ( Machine.Scalarize.predicate ~block_size kernel
    , Machine.Backend.default_scalar_limit )

(* every gate run is a no-op unless CRAT_VERIFY / Verify.Gate.set arms it *)
let gated ?(backend = Machine.Backend.Ptx) ~label ~block_size kernel allocation =
  let block = Some block_size in
  Gate.run ~stage:(label ^ ":pre-alloc")
    [ Gate.Kernel { block_size = block; kernel }
    ; Gate.Sanitize { block_size = block; kernel }
    ];
  let a = allocation () in
  Gate.run ~stage:(label ^ ":post-alloc")
    [ Gate.Allocation a
    ; Gate.Equiv_alloc a
    ; Gate.Sanitize { block_size = block; kernel = a.Regalloc.Allocator.kernel }
    ];
  if backend = Machine.Backend.Machine && Gate.enabled () then begin
    let m = Machine.Lower.run a in
    Gate.run ~stage:(label ^ ":post-lower")
      [ Gate.Machine m; Gate.Equiv_lower m ]
  end;
  a

let allocate ?(strategy = Regalloc.Allocator.Chaitin_briggs)
    ?(backend = Machine.Backend.Ptx) ?(shared_spare = 0) ~label ~block_size
    ~reg_limit kernel =
  gated ~backend ~label ~block_size kernel (fun () ->
    let scalar, scalar_limit = scalar backend ~block_size kernel in
    let shared_policy = if shared_spare > 0 then `Spare shared_spare else `Off in
    Regalloc.Allocator.allocate ~strategy ~shared_policy ~scalar ~scalar_limit
      ~block_size ~reg_limit kernel)

let stages ?strategy ?shared_spare ?regs (app : Workloads.App.t) =
  let block_size = app.Workloads.App.block_size in
  let reg_limit = Option.value ~default:app.Workloads.App.default_regs regs in
  let k = Workloads.App.kernel app in
  let k', _ = Ptxopt.Pipeline.run ~block_size k in
  let alloc =
    match
      allocate ?strategy ?shared_spare ~label:app.Workloads.App.abbr ~block_size
        ~reg_limit k
    with
    | a -> Ok a
    | exception Failure msg -> Error msg
  in
  (k, k', alloc)
