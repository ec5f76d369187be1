(* Bring your own kernel: parse PTX text, allocate registers at several
   limits, execute on the emulator and inspect the spill code.

     dune exec examples/custom_kernel.exe

   This is the path an external user would take to apply CRAT's
   allocator to a kernel that does not come from the built-in workload
   suite. The kernel below computes out[i] = a*inp[i] + b over a small
   grid with a per-thread loop, written directly in the PTX subset. *)

let source =
  {|.entry saxpy_ish (
  .param .u64 inp,
  .param .u64 out,
  .param .u32 n
)
{
  .reg .u32 %r0, %r1, %r2, %r3, %r4, %r5, %r6, %r20;
  .reg .f32 %r10, %r11, %r12;
  .reg .u64 %d0, %d1, %d2, %d3;
  .reg .pred %p0;
  mov.u32 %r0, %tid.x;
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mad.lo.u32 %r3, %r1, %r2, %r0;
  ld.param.u64 %d0, [inp];
  ld.param.u64 %d1, [out];
  mov.f32 %r10, 0;
  mov.u32 %r4, 0;
Lloop:
  setp.ge.u32 %p0, %r4, 4;
  @%p0 bra Ldone;
  mad.lo.u32 %r20, %r4, %r2, %r3;
  and.u32 %r5, %r20, 1023;
  mul.lo.u32 %r6, %r5, 4;
  cvt.u64.u32 %d2, %r6;
  add.u64 %d3, %d0, %d2;
  ld.global.f32 %r11, [%d3];
  mad.lo.f32 %r10, %r11, 2.0, %r10;
  add.u32 %r4, %r4, 1;
  bra Lloop;
Ldone:
  mul.lo.u32 %r6, %r3, 4;
  cvt.u64.u32 %d2, %r6;
  add.u64 %d3, %d1, %d2;
  add.f32 %r12, %r10, 1.0;
  st.global.f32 [%d3], %r12;
  ret;
}|}

let run_kernel kernel =
  let mem = Gpusim.Memory.create () in
  Gpusim.Memory.write_f32_array mem ~base:0x1000_0000L
    (Array.init 1024 (fun i -> float_of_int (i mod 10)));
  let final =
    Gpusim.Emulator.run
      (Gpusim.Launch.make ~kernel ~block_size:64 ~num_blocks:2
         ~params:
           [ ("inp", Gpusim.Value.I 0x1000_0000L)
           ; ("out", Gpusim.Value.I 0x2000_0000L)
           ; ("n", Gpusim.Value.of_int 1024)
           ]
         mem)
  in
  Gpusim.Memory.read_f32_array final ~base:0x2000_0000L 128

let () =
  let kernel = Ptx.Parser.parse_kernel_exn source in
  Format.printf "parsed %s: %d instructions, demand %d register units@.@."
    kernel.Ptx.Kernel.name
    (Ptx.Kernel.instr_count kernel)
    (Ptx.Kernel.register_demand kernel);
  let reference = run_kernel kernel in
  Format.printf "emulated: out[0..7] =";
  Array.iteri (fun i v -> if i < 8 then Format.printf " %.1f" v) reference;
  Format.printf "@.@.";
  List.iter
    (fun lim ->
       match Regalloc.Allocator.allocate ~block_size:64 ~reg_limit:lim kernel with
       | a ->
         let after = run_kernel a.Regalloc.Allocator.kernel in
         let same = ref true in
         Array.iteri (fun i v -> if v <> after.(i) then same := false) reference;
         Format.printf
           "reg_limit=%2d: %2d units used, %d spilled, %3d instrs, semantics %s@."
           lim a.Regalloc.Allocator.units_used
           (List.length a.Regalloc.Allocator.spilled)
           (Ptx.Kernel.instr_count a.Regalloc.Allocator.kernel)
           (if !same then "preserved" else "BROKEN")
       | exception Failure msg ->
         (* below the feasible minimum: the kernel's 64-bit address
            registers plus spill infrastructure no longer fit *)
         Format.printf "reg_limit=%2d: infeasible (%s)@." lim msg)
    [ 16; 12; 11; 10 ];
  Format.printf "@.allocated kernel at reg_limit=11 (with spill code):@.";
  let tight = Regalloc.Allocator.allocate ~block_size:64 ~reg_limit:11 kernel in
  print_string (Ptx.Printer.kernel_to_string tight.Regalloc.Allocator.kernel)
