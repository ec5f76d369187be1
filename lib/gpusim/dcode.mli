(** Predecoded kernel image: the dense execution form the interpreter's
    allocation-free fast path runs. Built once per {!Image} by lowering
    the flattened [Ptx.Instr.t] array — registers renamed to
    consecutive slots, branch/reconvergence targets resolved to
    indices, symbols and params resolved to immediates/offsets/table
    indices, and per-pc use/def slot arrays plus the timing [exec]
    outcome precomputed. Statically-invalid instructions become
    [Dbad]/[DBad] thunks that raise the original interpreter's error
    at execution (not predecode) time. *)

type dop =
  | Dreg of int  (** register slot *)
  | Dimm of int64  (** integer-tagged immediate *)
  | Dfimm of int64  (** float-tagged immediate (bit pattern) *)
  | Dspecial of Ptx.Reg.special
  | Dlocal of int  (** local-symbol frame offset; address is per-lane *)
  | Dparam of int  (** index into the launch parameter table *)
  | Dbad of string  (** raises [Invalid_argument] when evaluated *)

type dinstr =
  | DMov of { ty : Ptx.Types.scalar; dst : int; dty : Ptx.Types.scalar; a : dop }
  | DBinop of
      { op : Ptx.Instr.binop
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      }
  | DMad of
      { ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      ; c : dop
      }
  | DUnop of
      { op : Ptx.Instr.unop
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      }
  | DCvt of
      { dt : Ptx.Types.scalar
      ; st : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      }
  | DSetp of
      { cmp : Ptx.Instr.cmp
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      }
  | DSelp of
      { ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; a : dop
      ; b : dop
      ; p : int
      }
  | DLd_param of
      { ty : Ptx.Types.scalar; dst : int; dty : Ptx.Types.scalar; pidx : int }
  | DLd of
      { space : Ptx.Types.space
      ; ty : Ptx.Types.scalar
      ; dst : int
      ; dty : Ptx.Types.scalar
      ; base : dop
      ; off : int
      }
  | DSt of
      { space : Ptx.Types.space
      ; ty : Ptx.Types.scalar
      ; base : dop
      ; off : int
      ; src : dop
      }
  | DBra of int
  | DBra_pred of { p : int; sense : bool; target : int; reconv : int }
  | DBar
  | DRet
  | DBad of string

(** What a step did, for the timing layer (re-exported as
    [Interp.exec]). Lane addresses of an [E_mem] are exposed through
    the warp scratch buffer ([Interp.mem_count]/[mem_addr]/[mem_lane]),
    valid until the warp's next step. *)
type exec =
  | E_alu of Ptx.Instr.op_class
  | E_mem of
      { space : Ptx.Types.space
      ; write : bool
      ; width : int
      }
  | E_barrier
  | E_exit

val popcount : int -> int
(** Number of set bits — the active lanes of a mask. Branch-free SWAR. *)

type t = private
  { code : dinstr array
  ; exec_of : exec array  (** preallocated per-pc step outcome *)
  ; cls : Ptx.Instr.op_class array
  ; uses : int array array  (** register slots read, per pc *)
  ; defs : int array array  (** register slots written, per pc *)
  ; is_gl_mem : bool array  (** global-memory LSU path (global/local) *)
  ; nslots : int
  ; params : string array  (** launch parameters, in first-use order *)
  ; slot_of_key : (int, int) Hashtbl.t
  }

val reg_key : Ptx.Reg.t -> int
(** Physical-slot key: width class and id, ignoring the scalar type —
    two registers with the same colour share a slot. *)

val num_slots : t -> int
val num_params : t -> int
val param_name : t -> int -> string
val slot_of_reg : t -> Ptx.Reg.t -> int option

val build :
  flow:Cfg.Flow.t ->
  reconv:int array ->
  shared_offsets:(string * int) list ->
  local_offsets:(string * int) list ->
  t
