(** Chaitin-Briggs graph colouring with optimistic spilling for one
    register class.

    Briggs' refinement: a node of high degree is pushed as a *potential*
    spill and only becomes an *actual* spill if, at select time, all [k]
    colours are taken by coloured neighbours.

    PTX type-strictness (paper Section 5.2): the paper's allocator
    prefers not to reuse a physical register for a variable of a
    different scalar type, which wastes registers relative to nvcc.
    With [~type_strict:true] (the default, matching CRAT) a node picks,
    in order: a free colour already bound to its type, a free unbound
    colour, and only then — counted in [type_waste] — a free colour of
    another type. Strictness therefore inflates [colors_used] (the
    paper's register waste) but never causes extra spills. *)

type result =
  { assignment : int Ptx.Reg.Map.t  (** register -> colour (physical id) *)
  ; spilled : Ptx.Reg.t list  (** actual spills, in selection order *)
  ; colors_used : int
  ; type_waste : int
      (** cross-type colour reuses that the paper's allocator would have
          preferred to avoid *)
  }

val color :
  ?type_strict:bool
  -> ?member:(Ptx.Reg.t -> bool)
  -> graph:Interference.t
  -> cls:Ptx.Types.reg_class
  -> k:int
  -> spill_cost:(Ptx.Reg.t -> float)
  -> unit
  -> result
(** Colour the subgraph of class [cls] with at most [k] colours.
    [member] (default: everything) restricts the node set further than
    the class alone — the backend-parametric allocator colours the
    vector and scalar partitions of one class as two independent
    subproblems against separate budgets. Nodes outside the subproblem
    never constrain a colour (colours are per register file).
    [spill_cost r = infinity] marks [r] unspillable (spill infrastructure
    registers); unspillable nodes are never chosen as spill candidates.
    @raise Failure if colouring is impossible because every uncoloured
    node is unspillable. *)

(** {2 One subproblem, several budgets} *)

type problem
(** A class's subproblem of a graph: its nodes, their edges inside it
    and their spill costs. *)

val problem :
  ?member:(Ptx.Reg.t -> bool)
  -> graph:Interference.t
  -> cls:Ptx.Types.reg_class
  -> spill_cost:(Ptx.Reg.t -> float)
  -> unit
  -> problem

val solve : ?type_strict:bool -> problem -> k:int -> result
(** [solve ?type_strict (problem ?member ~graph ~cls ~spill_cost ()) ~k]
    is [color ?type_strict ?member ~graph ~cls ~k ~spill_cost ()]; a
    problem may be solved against any number of budgets. *)
