(** Interference graph over virtual registers (Chaitin's construction):
    at every instruction, each defined register interferes with the
    registers live-out of that instruction — except, for a move, with the
    move source (enabling the classic copy exception). Only registers of
    the same width class interfere; predicates have their own class and
    never constrain the 32/64-bit pools.

    The representation is Chaitin and Briggs' own: the registers the
    instructions read or write are numbered densely, once per graph,
    class by class and in {!Ptx.Reg.compare} order within a class; a
    triangular bit-matrix answers {!interferes} and a per-node array
    lists the neighbours. *)

type t

val build : Cfg.Flow.t -> Cfg.Liveness.t -> t
val nodes : t -> Ptx.Reg.t list
(** Every register the instructions read or write, in
    {!Ptx.Reg.compare} order. *)

val nodes_of_class : t -> Ptx.Types.reg_class -> Ptx.Reg.t list
val neighbors : t -> Ptx.Reg.t -> Ptx.Reg.Set.t
val degree : t -> Ptx.Reg.t -> int
val interferes : t -> Ptx.Reg.t -> Ptx.Reg.t -> bool
val num_edges : t -> int
(** Undirected edge count. *)

(** {2 Dense nodes} *)

val class_nodes : t -> Ptx.Types.reg_class -> int * int
(** [(lo, hi)]: the class's nodes are numbered [lo .. hi - 1], in
    {!Ptx.Reg.compare} order, so node [lo + i] is the [i]-th element of
    {!nodes_of_class}. *)

val reg : t -> int -> Ptx.Reg.t
val adjacent : t -> int -> int array
(** The node's neighbours (all of its class), in no particular order. *)
