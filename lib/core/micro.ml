module B = Ptx.Builder
module T = Ptx.Types

type costs =
  { cost_local : float
  ; cost_shm : float
  }

(* A loop of dependent loads from the given space; the dependence chain
   makes the measured cycles per iteration approximate the access delay. *)
let probe_kernel space =
  let b = B.create (Printf.sprintf "micro_%s" (T.space_to_string space)) in
  let _out = B.param b "out" T.U64 in
  let reps = B.param b "reps" T.U32 in
  let slots = 16 in
  let arr =
    match space with
    | T.Local -> B.decl_local b "probe" T.U32 slots
    | T.Shared -> B.decl_shared b "probe" T.U32 ((slots + 1) * 64)
    | T.Reg | T.Global | T.Param | T.Const ->
      invalid_arg "Micro.probe_kernel: local or shared only"
  in
  let base =
    match space with
    | T.Local ->
      let d = B.mov b T.U64 arr in
      d
    | T.Shared | T.Reg | T.Global | T.Param | T.Const ->
      (* per-thread slice of the shared probe, with the same odd-word
         stride padding the spill layout uses (conflict-free banking) *)
      let tid = B.special b Ptx.Reg.Tid_x in
      let off = B.mul b T.U32 (B.reg tid) (B.imm ((slots * 4) + 4)) in
      let s = B.mov b T.U32 arr in
      let a32 = B.add b T.U32 (B.reg s) (B.reg off) in
      B.cvt b T.U64 T.U32 (B.reg a32)
  in
  let r = B.ld_param b T.U32 reps in
  (* seed the chain *)
  B.st b space T.U32 (B.reg base) 0 (B.imm 1);
  let v0 = B.mov b T.U32 (B.imm 0) in
  B.for_loop b ~from:(B.imm 0) ~below:(B.reg r) ~step:1 (fun _ ->
    let x = B.ld b space T.U32 (B.reg base) 0 in
    let y = B.binop b Ptx.Instr.And T.U32 (B.reg x) (B.imm 3) in
    B.st b space T.U32 (B.reg base) 0 (B.reg y);
    B.acc_binop b Ptx.Instr.Add T.U32 v0 (B.reg y));
  let out64 = B.ld_param b T.U64 (Ptx.Instr.Oparam "out") in
  B.st b T.Global T.U32 (B.reg out64) 0 (B.reg v0);
  B.finish b

let run_probe cfg space =
  let reps = 64 in
  let k = probe_kernel space in
  let mem = Gpusim.Memory.create () in
  let launch =
    Gpusim.Launch.make ~kernel:k ~block_size:cfg.Gpusim.Config.warp_size
      ~num_blocks:1
      ~warp_size:cfg.Gpusim.Config.warp_size
      ~params:
        [ ("out", Gpusim.Value.I 0x2000_0000L)
        ; ("reps", Gpusim.Value.of_int reps)
        ]
      mem
  in
  let st = Gpusim.Sm.run cfg launch in
  let accesses = 2 * reps in
  float_of_int st.Gpusim.Stats.cycles /. float_of_int accesses

(* Keyed on the whole configuration (pure data, so its marshalled bytes
   are a structural key): a variant that keeps a target's name still gets
   its own probe. [Memo] rather than a [Lazy.t]: forcing a lazy
   concurrently from several domains raises [Lazy.Undefined]. *)
let memo : costs Memo.t = Memo.create ()

let measure (cfg : Gpusim.Config.t) =
  fst
    (Memo.get_or_compute memo
       (Digest.string (Marshal.to_string cfg []))
       (fun () ->
          { cost_local = run_probe cfg T.Local; cost_shm = run_probe cfg T.Shared }))
