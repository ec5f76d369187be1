(** Provable loop trip counts.

    A loop (one natural loop per back edge) gets a proven trip count when
    it has a single recognisable induction register (one in-loop
    definition of the shape [x := x op imm]), a unique exit block whose
    conditional branch tests [x] against a loop-invariant value the
    abstract interpretation pins to a constant, and a provable initial
    value on loop entry. The count is then obtained by running the exact
    [Value] semantics of the induction update until the exit condition
    fires (capped), so wrap-around and signed/unsigned comparison
    subtleties match the simulator by construction. *)

type loop =
  { back_edge : int * int
  ; header : int  (** block id *)
  ; members : bool array  (** per-block membership *)
  ; exits : int list  (** in-loop blocks with an out-edge *)
  ; trips : int option
        (** proven number of body executions for every entry; [Some 0]
            means the loop provably never runs *)
  }

val loops : Analysis.t -> loop list
