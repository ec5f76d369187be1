let inp_base = 0x1000_0000L
let out_base = 0x2000_0000L
let aux_base = 0x3000_0000L

let splitmix seed i =
  let z = ref (seed + (i * 0x9E3779B9) land max_int) in
  z := !z lxor (!z lsr 16);
  z := !z * 0x85EBCA6B land max_int;
  z := !z lxor (!z lsr 13);
  z := !z * 0xC2B2AE35 land max_int;
  z := !z lxor (!z lsr 16);
  !z

let uniform_f32 ~seed n =
  Array.init n (fun i -> float_of_int (splitmix seed i mod 1_000_000) /. 1_000_000.)

let uniform_u32 ~seed ~bound n =
  Array.init n (fun i -> splitmix seed i mod bound)
