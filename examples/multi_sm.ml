(* Whole-GPU simulation: several SMs stepping against one shared
   L2/interconnect/DRAM, with blocks dispatched globally.

     dune exec examples/multi_sm.exe [-- APP]

   Shows weak scaling (work per SM held constant): compute-bound kernels
   scale almost linearly in aggregate IPC, while the shared memory
   system charges a growing contention tax. *)

let () =
  let abbr = if Array.length Sys.argv > 1 then Sys.argv.(1) else "KMN" in
  let app = Workloads.Suite.find abbr in
  let base = Gpusim.Config.fermi in
  (* the single-SM experiments model one SM's share of DRAM bandwidth;
     a whole-GPU run exposes the full pipe *)
  let cfg =
    { base with
      Gpusim.Config.dram_bytes_per_cycle =
        base.Gpusim.Config.dram_bytes_per_cycle * base.Gpusim.Config.num_sms
    }
  in
  let input = Workloads.App.default_input app in
  let kernel =
    (Regalloc.Allocator.allocate ~block_size:app.Workloads.App.block_size
       ~reg_limit:app.Workloads.App.default_regs (Workloads.App.kernel app))
      .Regalloc.Allocator.kernel
  in
  Format.printf "weak scaling for %s (%d blocks per SM, TLP 2)@.@."
    app.Workloads.App.app_name input.Workloads.App.num_blocks;
  Format.printf "%5s %10s %9s %10s %12s@." "SMs" "cycles" "IPC" "L2 reads" "DRAM bytes";
  List.iter
    (fun sms ->
       let grid = sms * input.Workloads.App.num_blocks in
       let r =
         Gpusim.Gpu.run ~sms cfg
           (Workloads.App.launch app ~kernel ~tlp:2
              ~input:{ input with Workloads.App.num_blocks = grid } ())
       in
       Format.printf "%5d %10d %9.2f %10d %12d@." sms r.Gpusim.Gpu.total_cycles
         (Gpusim.Gpu.aggregate_ipc r) r.Gpusim.Gpu.l2.Gpusim.Cache.reads
         r.Gpusim.Gpu.dram_bytes)
    [ 1; 2; 4; 8; 15 ]
