(* Boxed SIMT control shared by the reference interpreter in
   test/support and the machine-ISA executor (Machine.Exec): per-warp
   reconvergence stacks, the divergent-branch split, thread geometry,
   the lane-memory path with its sanitizer probes, and the
   barrier-quantum block scheduler. The clients supply only instruction semantics over their
   own register files. *)

type launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
  }

let launch_ctx ?sanitize ~image (l : Launch.t) =
  { image
  ; global = Memory.copy l.Launch.memory
  ; params = l.Launch.params
  ; block_size = l.Launch.block_size
  ; num_blocks = l.Launch.num_blocks
  ; san = sanitize
  }

type block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  }

type stack_entry =
  { mutable next_pc : int
  ; reconv_pc : int
  ; mask : int
  }

type 'rf warp =
  { block : block_ctx
  ; wid : int
  ; base_tid : int
  ; nlanes : int
  ; regs : 'rf
  ; mutable stack : stack_entry list
  ; mutable done_ : bool
  }

let make_block launch ~ctaid ~warp_size regs =
  if launch.block_size <= 0 || launch.block_size mod warp_size <> 0 then
    invalid_arg "Simt.make_block: block size must be a multiple of warp size";
  let nwarps = launch.block_size / warp_size in
  let block = { launch; ctaid; shared = Memory.create (); nwarps } in
  let warps =
    List.init nwarps (fun w ->
      { block
      ; wid = w
      ; base_tid = w * warp_size
      ; nlanes = warp_size
      ; regs = regs ()
      ; stack =
          [ { next_pc = 0; reconv_pc = -1; mask = (1 lsl warp_size) - 1 } ]
      ; done_ = false
      })
  in
  (block, warps)

let is_done w = w.done_
let block_of w = w.block
let warp_id w = w.wid
let nlanes w = w.nlanes
let regs w = w.regs

let tos w =
  match w.stack with
  | e :: _ -> e
  | [] -> failwith "Simt: empty reconvergence stack"

let normalize w =
  let rec loop () =
    match w.stack with
    | e :: (_ :: _ as rest) when e.next_pc = e.reconv_pc ->
      w.stack <- rest;
      loop ()
    | _ :: _ | [] -> ()
  in
  loop ()

let pc w = (tos w).next_pc
let active_mask w = (tos w).mask

let fetch w code =
  if w.done_ then None
  else begin
    normalize w;
    let p = pc w in
    if p >= Array.length code then None else Some code.(p)
  end

let step w code ~exit exec =
  if w.done_ then invalid_arg "Simt.step: warp already done";
  normalize w;
  let e = tos w in
  let this_pc = e.next_pc in
  if this_pc >= Array.length code then begin
    w.done_ <- true;
    exit
  end
  else begin
    e.next_pc <- this_pc + 1;
    let result = exec ~pc:this_pc ~mask:e.mask code.(this_pc) in
    normalize w;
    result
  end

let iter_active w mask f =
  for lane = 0 to w.nlanes - 1 do
    if mask land (1 lsl lane) <> 0 then f lane
  done

let jump w target = (tos w).next_pc <- target

let branch w ~pc ~mask ~target taken_lane =
  let taken = ref 0 in
  iter_active w mask (fun lane ->
    if taken_lane lane then taken := !taken lor (1 lsl lane));
  let e = tos w in
  let fall = mask land lnot !taken in
  if !taken = 0 then () (* next_pc already pc+1 *)
  else if fall = 0 then e.next_pc <- target
  else begin
    let reconv = w.block.launch.image.Image.reconv.(pc) in
    e.next_pc <- reconv;
    w.stack <-
      { next_pc = target; reconv_pc = reconv; mask = !taken }
      :: { next_pc = pc + 1; reconv_pc = reconv; mask = fall }
      :: w.stack
  end

let exit_warp w =
  if List.length w.stack > 1 then
    failwith "Simt.exit_warp: divergent exit is not supported";
  w.done_ <- true

let global_tid w lane =
  (w.block.ctaid * w.block.launch.block_size) + w.base_tid + lane

let special w lane s =
  let v =
    match s with
    | Ptx.Reg.Tid_x -> w.base_tid + lane
    | Ptx.Reg.Tid_y -> 0
    | Ptx.Reg.Ctaid_x -> w.block.ctaid
    | Ptx.Reg.Ctaid_y -> 0
    | Ptx.Reg.Ntid_x -> w.block.launch.block_size
    | Ptx.Reg.Ntid_y -> 1
    | Ptx.Reg.Nctaid_x -> w.block.launch.num_blocks
    | Ptx.Reg.Nctaid_y -> 1
    | Ptx.Reg.Laneid -> lane
    | Ptx.Reg.Warpid -> w.wid
  in
  Value.of_int v

let local_addr w lane sym_offset =
  Image.local_addr w.block.launch.image ~global_tid:(global_tid w lane)
    ~sym_offset

(* Sanitizer probes. Shared addresses are already segment-relative;
   local accesses are checked on the naive (pre-interleave) address,
   reduced to an offset into the thread's own frame — which also keeps
   [Image.remap_local] from being fed an out-of-frame address. *)
let lane_mem w ~pc ~lane ~width space a =
  let launch = w.block.launch in
  let allowed rel =
    match launch.san with
    | None -> true
    | Some rt ->
      Sancheck.check rt ~pc ~lane ~tid:(w.base_tid + lane) ~width ~rel
  in
  match space with
  | Ptx.Types.Shared -> if allowed a then Some (w.block.shared, a) else None
  | Ptx.Types.Local ->
    let global_tid = global_tid w lane in
    let frame =
      Int64.add Image.local_base
        (Int64.of_int (global_tid * launch.image.Image.local_frame_bytes))
    in
    if allowed (Int64.sub a frame) then
      Some (launch.global, Image.remap_local launch.image ~global_tid a)
    else None
  | Ptx.Types.Global | Ptx.Types.Const | Ptx.Types.Param | Ptx.Types.Reg ->
    Some (launch.global, a)

type outcome =
  | Step
  | Barrier
  | Exit

(* Run each warp until it blocks on a barrier or finishes; release the
   barrier once every live warp has reached it (warps that exited no
   longer count). *)
let run_block ~is_done ~warps ~step =
  let warps = Array.of_list warps in
  let waiting = Array.make (Array.length warps) false in
  let all_done () = Array.for_all is_done warps in
  let progress = ref true in
  while (not (all_done ())) && !progress do
    progress := false;
    Array.iteri
      (fun i w ->
         if (not (is_done w)) && not waiting.(i) then begin
           let stop = ref false in
           while not !stop do
             (match step w with
              | Barrier ->
                waiting.(i) <- true;
                stop := true
              | Exit -> stop := true
              | Step -> ());
             progress := true
           done
         end)
      warps;
    let live_blocked = ref true in
    Array.iteri
      (fun i w -> if not (is_done w || waiting.(i)) then live_blocked := false)
      warps;
    if !live_blocked then Array.fill waiting 0 (Array.length waiting) false
  done;
  if not (all_done ()) then failwith "Simt.run_block: barrier deadlock"

exception Over_budget

let budget max_warp_instrs step =
  match max_warp_instrs with
  | None -> step
  | Some n ->
    let issued = ref 0 in
    fun w ->
      if !issued >= n then raise Over_budget;
      incr issued;
      step w
