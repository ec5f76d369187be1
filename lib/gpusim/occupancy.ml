type usage =
  { regs_per_thread : int
  ; sregs_per_warp : int
  ; block_size : int
  ; shared_per_block : int
  }

type limit =
  | Thread_slots
  | Block_slots
  | Registers of [ `Vector | `Scalar ]
  | Shared_memory

let limit_to_string = function
  | Thread_slots -> "threads"
  | Block_slots -> "thread blocks"
  | Registers `Vector -> "registers"
  | Registers `Scalar -> "scalar registers"
  | Shared_memory -> "shared memory"

let warps_per_block c u = (u.block_size + c.Config.warp_size - 1) / c.Config.warp_size

let max_tlp (c : Config.t) u =
  let by_threads = c.Config.max_threads_per_sm / u.block_size in
  let by_blocks = c.Config.max_blocks_per_sm in
  let by_regs =
    if u.regs_per_thread = 0 then by_blocks
    else Config.registers_per_sm c / (u.regs_per_thread * u.block_size)
  in
  let by_sregs =
    if u.sregs_per_warp = 0 then by_blocks
    else c.Config.scalar_regs_per_sm / (u.sregs_per_warp * warps_per_block c u)
  in
  let by_shared =
    if u.shared_per_block = 0 then by_blocks
    else c.Config.shared_bytes_per_sm / u.shared_per_block
  in
  max 0 (min (min by_threads by_blocks) (min (min by_regs by_sregs) by_shared))

let limiting_resource (c : Config.t) u =
  let tlp = max_tlp c u in
  let next = tlp + 1 in
  if next * u.block_size > c.Config.max_threads_per_sm then Thread_slots
  else if next > c.Config.max_blocks_per_sm then Block_slots
  else if next * u.regs_per_thread * u.block_size > Config.registers_per_sm c
  then Registers `Vector
  else if next * u.sregs_per_warp * warps_per_block c u > c.Config.scalar_regs_per_sm
  then Registers `Scalar
  else if next * u.shared_per_block > c.Config.shared_bytes_per_sm then
    Shared_memory
  else Block_slots

let register_utilization (c : Config.t) u ~tlp =
  float_of_int (tlp * u.block_size * u.regs_per_thread)
  /. float_of_int (Config.registers_per_sm c)

let shared_utilization (c : Config.t) u ~tlp =
  float_of_int (tlp * u.shared_per_block)
  /. float_of_int c.Config.shared_bytes_per_sm

let spare_shared_bytes (c : Config.t) u ~tlp =
  if tlp <= 0 then 0
  else
    let per_block_budget = c.Config.shared_bytes_per_sm / tlp in
    max 0 (per_block_budget - u.shared_per_block)
