(** Simulated GPU configurations.

    {!fermi} reproduces the paper's Table 2 (GPGPU-Sim 3.2.3, Fermi-like);
    {!kepler} is the scaled configuration of Section 7.3 (256 KB register
    file, 2048 threads per SM). *)

type t =
  { name : string
  ; num_sms : int
  ; warp_size : int
  ; max_threads_per_sm : int
  ; max_blocks_per_sm : int
  ; regfile_bytes_per_sm : int
  ; scalar_regs_per_sm : int
      (** scalar-file 32-bit registers per SM, shared per-warp by the
          machine backend; the PTX backend never touches it *)
  ; shared_bytes_per_sm : int
  ; num_schedulers : int  (** warp schedulers per SM *)
  ; max_regs_per_thread : int  (** hardware/ABI cap per thread *)
  ; l1_bytes : int
  ; l1_assoc : int
  ; l1_line : int
  ; l1_mshrs : int
  ; l1_hit_latency : int
  ; l1_ports : int  (** cache accesses accepted per cycle *)
  ; shared_latency : int
  ; shared_banks : int
      (** shared memory banks; conflicting lanes serialise *)
  ; l2_bytes : int
  ; l2_assoc : int
  ; l2_latency : int
  ; icnt_bytes_per_cycle : int
      (** L1<->L2 interconnect bandwidth per SM *)
  ; dram_latency : int
  ; dram_bytes_per_cycle : int
  ; alu_latency : int
  ; alu_heavy_latency : int
  ; sfu_latency : int
  ; const_latency : int
  }

val fermi : t
val kepler : t
val registers_per_sm : t -> int
(** 32-bit registers per SM ([regfile_bytes / 4]). *)

val min_reg : t -> int
(** The paper's MinReg: [NumRegister / MaxThreads] — allocating fewer
    registers per thread than this cannot raise the TLP. *)

val latency : t -> Ptx.Instr.op_class -> int
(** Result latency of a non-memory issue class, shared by the timing
    model and the static segment analysis. Memory classes (whose latency
    the memory hierarchy decides) and barriers get the ALU latency. *)

val pp : Format.formatter -> t -> unit
(** Table 2-style rendering. *)
