(** Deterministic input-data generation for the synthetic workloads. *)

val inp_base : int64
val out_base : int64
val aux_base : int64

val splitmix : int -> int -> int
(** [splitmix seed i]: the i-th value of a splitmix64-style stream —
    deterministic, no global state. *)

val uniform_f32 : seed:int -> int -> float array
(** [n] floats in [0, 1). *)

val uniform_u32 : seed:int -> bound:int -> int -> int array
