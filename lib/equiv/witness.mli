(** Concrete counterexample search and replay.

    A refutation is only ever reported with a witness input on which the
    two sides of the edge {e demonstrably} diverge under the reference
    interpreter (or the machine executor, for the lowering edge): the
    static mismatch seeds a differential fuzzing pass, and a failed
    search downgrades the verdict to unknown rather than refuted. *)

type runner =
  | Run_kernel of Ptx.Kernel.t
  | Run_machine of Machine.Lower.t

type t =
  { block_size : int
  ; num_blocks : int
  ; params : (string * Gpusim.Value.t) list
  ; mem_words : (int64 * int64) list
      (** initial-memory seeding: (address, 32-bit pattern) pairs *)
  ; descr : string  (** first observed divergence *)
  }

val kernel_of : runner -> Ptx.Kernel.t

val search :
  left:runner ->
  right:runner ->
  block_size:int ->
  ?num_blocks:int ->
  ?trials:int ->
  ?salt:int ->
  params_ty:(string * Ptx.Types.scalar) list ->
  seeds:(string * int64 list) list ->
  unit ->
  t option
(** Differential search over sampled launches; integer parameters draw
    from a boundary pool extended with path-constraint [seeds], 64-bit
    parameters become distinct buffer bases with seeded contents.
    Each side of a trial runs under a fixed warp-instruction budget; a
    side that exceeds it may never end, so the search stops there with
    no witness. Deterministic for a given [salt]. *)

val replay : left:runner -> right:runner -> t -> string option
(** Re-run both sides on exactly the witness input, under the same
    budget; [Some descr] when the final global memories (below the
    local-heap base) differ. *)

val pp_params : Format.formatter -> (string * Gpusim.Value.t) list -> unit
