type segment =
  | Compute of int
  | Mem of int

type trace =
  { segments : segment list
  ; total_line_refs : int
  ; distinct_lines : int
  ; footprint_bytes : int
  ; reuse_ratio : float
  }

let of_launch (cfg : Gpusim.Config.t) (launch : Gpusim.Launch.t) =
  let image = Gpusim.Image.prepare launch.Gpusim.Launch.kernel in
  let lctx = Gpusim.Simt.launch_ctx ~image launch in
  let _block, warps =
    Gpusim.Interp.make_block lctx ~ctaid:0 ~warp_size:cfg.Gpusim.Config.warp_size
  in
  let w =
    match warps with
    | w :: _ -> w
    | [] -> invalid_arg "Segments.of_launch: empty block"
  in
  let line = cfg.Gpusim.Config.l1_line in
  let sc =
    Gpusim.Coalescer.create ~lanes:cfg.Gpusim.Config.warp_size ~line
      ~banks:cfg.Gpusim.Config.shared_banks
  in
  let lines = Hashtbl.create 256 in
  let segments = ref [] in
  let cur = ref 0 in
  let total_refs = ref 0 in
  let flush () =
    if !cur > 0 then begin
      segments := Compute !cur :: !segments;
      cur := 0
    end
  in
  let step =
    Gpusim.Simt.budget (Some 2_000_000) (fun w ->
      (match Gpusim.Interp.step w with
       | Gpusim.Interp.E_alu cls -> cur := !cur + Gpusim.Config.latency cfg cls
       | Gpusim.Interp.E_barrier -> cur := !cur + cfg.Gpusim.Config.alu_latency
       | Gpusim.Interp.E_exit -> ()
       | Gpusim.Interp.E_mem { space = Ptx.Types.Shared; _ } ->
         cur := !cur + cfg.Gpusim.Config.shared_latency
       | Gpusim.Interp.E_mem _ ->
         Gpusim.Coalescer.load sc (Gpusim.Interp.mem_addrs w) 0
           (Gpusim.Interp.mem_count w);
         let n = Gpusim.Coalescer.segments sc in
         for j = 0 to n - 1 do
           Hashtbl.replace lines (Gpusim.Coalescer.segment sc j) ()
         done;
         total_refs := !total_refs + n;
         flush ();
         segments := Mem n :: !segments);
      Gpusim.Simt.Step)
  in
  while not (Gpusim.Interp.is_done w) do ignore (step w) done;
  flush ();
  let distinct = Hashtbl.length lines in
  let reuse =
    if !total_refs = 0 then 0.
    else 1. -. (float_of_int distinct /. float_of_int !total_refs)
  in
  { segments = List.rev !segments
  ; total_line_refs = !total_refs
  ; distinct_lines = distinct
  ; footprint_bytes = distinct * line
  ; reuse_ratio = reuse
  }

(* Block 0 reads only its own input region (and a gather app's index
   array), which is the image of a one-block grid: each region's data is
   generated per word, so it does not depend on the grid. The launch
   keeps the real grid. *)
let trace cfg app (input : Workloads.App.input) =
  let l = Workloads.App.launch app ~input:{ input with Workloads.App.num_blocks = 1 } () in
  of_launch cfg { l with Gpusim.Launch.num_blocks = input.Workloads.App.num_blocks }

let pp fmt t =
  let ncomp = List.length (List.filter (function Compute _ -> true | Mem _ -> false) t.segments) in
  let nmem = List.length t.segments - ncomp in
  Format.fprintf fmt
    "%d compute + %d memory segments; %d line refs, %d distinct (reuse %.2f), footprint %dB"
    ncomp nmem t.total_line_refs t.distinct_lines t.reuse_ratio t.footprint_bytes
