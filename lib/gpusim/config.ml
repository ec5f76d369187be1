type t =
  { name : string
  ; num_sms : int
  ; warp_size : int
  ; max_threads_per_sm : int
  ; max_blocks_per_sm : int
  ; regfile_bytes_per_sm : int
  ; scalar_regs_per_sm : int
  ; shared_bytes_per_sm : int
  ; num_schedulers : int
  ; max_regs_per_thread : int
  ; l1_bytes : int
  ; l1_assoc : int
  ; l1_line : int
  ; l1_mshrs : int
  ; l1_hit_latency : int
  ; l1_ports : int
  ; shared_latency : int
  ; shared_banks : int
  ; l2_bytes : int
  ; l2_assoc : int
  ; l2_latency : int
  ; icnt_bytes_per_cycle : int
  ; dram_latency : int
  ; dram_bytes_per_cycle : int
  ; alu_latency : int
  ; alu_heavy_latency : int
  ; sfu_latency : int
  ; const_latency : int
  }

(* Table 2 of the paper: 15 SMs, 128 KB register file, 48 KB shared,
   1536 threads / 8 blocks per SM, 2 GTO schedulers, 32 KB 4-way L1 with
   128 B lines and 32 MSHRs, 768 KB L2. *)
let fermi =
  { name = "Fermi-like (Table 2)"
  ; num_sms = 15
  ; warp_size = 32
  ; max_threads_per_sm = 1536
  ; max_blocks_per_sm = 8
  ; regfile_bytes_per_sm = 128 * 1024
  ; scalar_regs_per_sm = 2048
  ; shared_bytes_per_sm = 48 * 1024
  ; num_schedulers = 2
  ; max_regs_per_thread = 63
  ; l1_bytes = 32 * 1024
  ; l1_assoc = 4
  ; l1_line = 128
  ; l1_mshrs = 32
  ; l1_hit_latency = 28
  ; l1_ports = 1
  ; shared_latency = 26
  ; shared_banks = 32
  ; l2_bytes = 768 * 1024
  ; l2_assoc = 8
  ; l2_latency = 120
  ; icnt_bytes_per_cycle = 10
  ; dram_latency = 300
  ; dram_bytes_per_cycle = 8
  ; alu_latency = 6
  ; alu_heavy_latency = 24
  ; sfu_latency = 18
  ; const_latency = 10
  }

(* Section 7.3: Kepler doubles the register file (256 KB) and raises the
   thread limit to 2048 per SM; block limit grows to 16. *)
let kepler =
  { fermi with
    name = "Kepler-like (Sec. 7.3)"
  ; regfile_bytes_per_sm = 256 * 1024
  ; scalar_regs_per_sm = 4096
  ; max_threads_per_sm = 2048
  ; max_blocks_per_sm = 16
  ; max_regs_per_thread = 255
  }

let registers_per_sm c = c.regfile_bytes_per_sm / 4
let min_reg c = registers_per_sm c / c.max_threads_per_sm

let latency c = function
  | Ptx.Instr.Alu | Ptx.Instr.Ctrl -> c.alu_latency
  | Ptx.Instr.Alu_heavy -> c.alu_heavy_latency
  | Ptx.Instr.Sfu -> c.sfu_latency
  | Ptx.Instr.Mem_const_param -> c.const_latency
  | Ptx.Instr.Mem_global | Ptx.Instr.Mem_local | Ptx.Instr.Mem_shared
  | Ptx.Instr.Barrier -> c.alu_latency

let pp fmt c =
  Format.fprintf fmt "%s@." c.name;
  Format.fprintf fmt "  SM           : %d SMs, %d warp size, %d schedulers (GTO)@."
    c.num_sms c.warp_size c.num_schedulers;
  Format.fprintf fmt "  Register     : %dKB (%d regs), max %d regs/thread@."
    (c.regfile_bytes_per_sm / 1024) (registers_per_sm c) c.max_regs_per_thread;
  Format.fprintf fmt "  Scalar regs  : %d per SM (machine backend)@."
    c.scalar_regs_per_sm;
  Format.fprintf fmt "  Shared memory: %dKB@." (c.shared_bytes_per_sm / 1024);
  Format.fprintf fmt "  TLP limits   : %d threads, %d thread blocks@."
    c.max_threads_per_sm c.max_blocks_per_sm;
  Format.fprintf fmt "  L1 data cache: %dKB, %d-way, %dB lines, LRU, %d MSHRs@."
    (c.l1_bytes / 1024) c.l1_assoc c.l1_line c.l1_mshrs;
  Format.fprintf fmt "  L2 cache     : %dKB, %d-way, %d-cycle@."
    (c.l2_bytes / 1024) c.l2_assoc c.l2_latency;
  Format.fprintf fmt "  DRAM         : %d-cycle, %dB/cycle@." c.dram_latency
    c.dram_bytes_per_cycle
