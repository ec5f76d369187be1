(* Differential tests for the allocation-free fast path:

   - random kernels stepped through {!Gpusim.Interp} (predecoded,
     unboxed) and {!Gpusim.Refinterp} (the original boxed interpreter)
     in lockstep, requiring bit-identical control flow, lane addresses,
     register contents (value bits AND float tags) and final memory;
   - the paged {!Gpusim.Memory} against the old Hashtbl store as a
     model, over adversarial address patterns (unaligned, negative,
     huge) and every scalar type. *)

module G = Gpusim

let value_eq a b =
  Int64.equal (G.Value.to_bits a) (G.Value.to_bits b)
  && Bool.equal (G.Value.is_f a) (G.Value.is_f b)

(* ---------- Interp vs Refinterp lockstep ---------- *)

let kernel_regs k =
  List.concat_map
    (fun i -> Ptx.Instr.defs i @ Ptx.Instr.uses i)
    (Ptx.Kernel.instrs k)
  |> List.sort_uniq compare

let lane_addrs_match wf (lane_addrs : (int * int64) list) =
  let n = G.Interp.mem_count wf in
  List.length lane_addrs = n
  && List.for_all2
       (fun (lane, addr) i ->
          lane = G.Interp.mem_lane wf i && Int64.equal addr (G.Interp.mem_addr wf i))
       lane_addrs
       (List.init n Fun.id)

let exec_matches wf (f : G.Interp.exec) (r : G.Refinterp.exec) =
  match (f, r) with
  | G.Interp.E_alu c, G.Refinterp.E_alu c' -> c = c'
  | ( G.Interp.E_mem { space; write; width }
    , G.Refinterp.E_mem { space = s'; write = w'; width = wd'; lane_addrs } ) ->
    Ptx.Types.equal_space space s' && write = w' && width = wd'
    && lane_addrs_match wf lane_addrs
  | G.Interp.E_barrier, G.Refinterp.E_barrier -> true
  | G.Interp.E_exit, G.Refinterp.E_exit -> true
  | _ -> false

let regs_match regs wf wr =
  List.for_all
    (fun r ->
       let vf = G.Interp.read_reg_values wf r in
       let vr = G.Refinterp.read_reg_values wr r in
       Array.length vf = Array.length vr
       && Array.for_all2 value_eq vf vr)
    regs

let prop_lockstep =
  QCheck.Test.make ~count:40 ~name:"fast path tracks reference interpreter"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem_f = G.Memory.create () in
      G.Memory.write_f32_array mem_f ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:11 1024);
      let mem_r = G.Memory.copy mem_f in
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      let image = G.Image.prepare k in
      let lctx_f =
        { G.Interp.image; global = mem_f; params; block_size = 64; num_blocks = 2 ; san = None}
      in
      let lctx_r =
        { G.Refinterp.image; global = mem_r; params; block_size = 64
        ; num_blocks = 2 ; san = None}
      in
      let regs = kernel_regs k in
      for ctaid = 0 to 1 do
        let _, warps_f = G.Interp.make_block lctx_f ~ctaid ~warp_size:32 in
        let _, warps_r = G.Refinterp.make_block lctx_r ~ctaid ~warp_size:32 in
        let pairs = List.combine warps_f warps_r in
        let budget = ref 2_000_000 in
        let live = ref true in
        while !live && !budget > 0 do
          live := false;
          List.iter
            (fun (wf, wr) ->
               if not (G.Interp.is_done wf) then begin
                 live := true;
                 decr budget;
                 if G.Refinterp.is_done wr then
                   QCheck.Test.fail_report "reference warp finished early";
                 if G.Interp.pc wf <> G.Refinterp.pc wr then
                   QCheck.Test.fail_report "pc diverged";
                 if G.Interp.active_mask wf <> G.Refinterp.active_mask wr then
                   QCheck.Test.fail_report "active mask diverged";
                 let ef = G.Interp.step wf in
                 let er = G.Refinterp.step wr in
                 if not (exec_matches wf ef er) then
                   QCheck.Test.fail_report "exec/lane addresses diverged"
               end)
            pairs;
          if !live && !budget = 0 then QCheck.Test.fail_report "step budget blown"
        done;
        List.iter
          (fun (wf, wr) ->
             if not (G.Refinterp.is_done wr) then
               QCheck.Test.fail_report "fast warp finished early";
             if not (regs_match regs wf wr) then
               QCheck.Test.fail_report "register file diverged")
          pairs
      done;
      G.Memory.equal mem_f mem_r)

(* whole-launch: the boxed reference semantics vs the fast path driven
   by the timing simulator (whose scheduler interleaves warps
   differently, so only the per-thread output buffer is compared) *)
let prop_ref_vs_sm =
  QCheck.Test.make ~count:15 ~name:"timing sim on fast path matches reference run"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem_r = G.Memory.create () in
      G.Memory.write_f32_array mem_r ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:7 1024);
      let mem_f = G.Memory.copy mem_r in
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      G.Refinterp.run
        (G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~params mem_r);
      let _ =
        G.Sm.run G.Config.fermi
          (G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~tlp_limit:2
             ~params mem_f)
      in
      Testsupport.Gen.outputs_equal
        (G.Memory.read_f32_array mem_r ~base:0x2000_0000L 128)
        (G.Memory.read_f32_array mem_f ~base:0x2000_0000L 128))

(* ---------- paged memory vs the old Hashtbl model ---------- *)

(* the seed's memory implementation, verbatim: the model *)
module Model = struct
  type t = (int64, G.Value.t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let read (t : t) addr ty =
    match Hashtbl.find_opt t addr with
    | Some v -> G.Value.truncate ty v
    | None -> G.Value.truncate ty G.Value.zero

  let write (t : t) addr ty v = Hashtbl.replace t addr (G.Value.truncate ty v)
end

let gen_addr =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> Int64.of_int (4 * abs i)) (QCheck.Gen.int_bound 3000)
      (* aligned, spanning several pages *)
    ; QCheck.Gen.map
        (fun i -> Int64.of_int ((4 * abs i) + 1))
        (QCheck.Gen.int_bound 200)  (* unaligned -> side table *)
    ; QCheck.Gen.map (fun i -> Int64.of_int (-4 * (1 + abs i))) (QCheck.Gen.int_bound 200)
      (* negative -> side table *)
    ; QCheck.Gen.map
        (fun i -> Int64.add 0x4000_0000_0000_0000L (Int64.of_int (4 * abs i)))
        (QCheck.Gen.int_bound 200)  (* beyond the paged range *)
    ]

let gen_scalar = QCheck.Gen.oneofl Ptx.Types.all_scalars

let gen_value =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> G.Value.I (Int64.of_int i)) QCheck.Gen.int
    ; QCheck.Gen.map (fun f -> G.Value.F f) QCheck.Gen.float
    ; QCheck.Gen.return (G.Value.F Float.nan)
    ; QCheck.Gen.return (G.Value.I (-1L))
    ]

type mem_op =
  | Write of int64 * Ptx.Types.scalar * G.Value.t
  | Read of int64 * Ptx.Types.scalar

let gen_op =
  QCheck.Gen.oneof
    [ QCheck.Gen.map3 (fun a ty v -> Write (a, ty, v)) gen_addr gen_scalar gen_value
    ; QCheck.Gen.map2 (fun a ty -> Read (a, ty)) gen_addr gen_scalar
    ]

let pp_op = function
  | Write (a, ty, v) ->
    Printf.sprintf "write %Ld %s %Ld" a
      (Ptx.Types.scalar_to_string ty)
      (G.Value.to_bits v)
  | Read (a, ty) -> Printf.sprintf "read %Ld %s" a (Ptx.Types.scalar_to_string ty)

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 400) gen_op)

let prop_memory_model =
  QCheck.Test.make ~count:200 ~name:"paged memory matches the Hashtbl model"
    arbitrary_ops (fun ops ->
      let m = G.Memory.create () in
      let model = Model.create () in
      List.iter
        (function
          | Write (a, ty, v) ->
            G.Memory.write m a ty v;
            Model.write model a ty v
          | Read (a, ty) ->
            let got = G.Memory.read m a ty in
            let want = Model.read model a ty in
            if not (value_eq got want) then
              QCheck.Test.fail_reportf "read %Ld %s: got %Ld/%b want %Ld/%b" a
                (Ptx.Types.scalar_to_string ty)
                (G.Value.to_bits got) (G.Value.is_f got) (G.Value.to_bits want)
                (G.Value.is_f want))
        ops;
      (* the fold view agrees with the model's contents *)
      let dump mem_fold =
        mem_fold (fun k v acc -> (k, G.Value.to_bits v, G.Value.is_f v) :: acc) []
        |> List.filter (fun (_, bits, _) -> not (Int64.equal bits 0L))
        |> List.sort compare
      in
      dump (fun f init -> G.Memory.fold f m init)
      = dump (fun f init -> Hashtbl.fold f model init))

let test_memory_copy_isolated () =
  let m = G.Memory.create () in
  G.Memory.write m 8L Ptx.Types.U32 (G.Value.of_int 7);
  let c = G.Memory.copy m in
  G.Memory.write c 8L Ptx.Types.U32 (G.Value.of_int 9);
  G.Memory.write c 1048576L Ptx.Types.F32 (G.Value.F 2.5);
  Alcotest.(check int) "original untouched" 7
    (Int64.to_int (G.Value.to_int64 (G.Memory.read m 8L Ptx.Types.U32)));
  Alcotest.(check int) "copy updated" 9
    (Int64.to_int (G.Value.to_int64 (G.Memory.read c 8L Ptx.Types.U32)));
  Alcotest.(check bool) "copies diverge" false (G.Memory.equal m c)

let () =
  Alcotest.run "fastpath"
    [ ( "differential"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_lockstep; prop_ref_vs_sm; prop_memory_model ] )
    ; ( "memory"
      , [ Alcotest.test_case "copy isolation" `Quick test_memory_copy_isolated ] )
    ]
