(** Static memory-safety bounds: the proving half of the hybrid
    sanitizer.

    Classifies every shared, local and param access of an analysed
    kernel against the exact segment extents of {!Gpusim.Image}'s
    loader layout — shared symbols, the per-thread local frame, the
    parameter bank, and (through {!Analysis.spill_stride}) the
    TLP-dependent per-thread sub-stacks of the shared spill region —
    using the reduced product the analysis already carries: an access
    is proven by its affine-in-tid/ctaid form swept over the realized
    thread and block ids, or by its interval, whichever is sharper.

    Global and const accesses are out of scope: their extent is the
    paged global memory itself, which has no static bound here.

    Each in-scope access gets a {!verdict} plus the
    {!Gpusim.Sancheck.bound} that backs it, so {!mask} can compile the
    result into a per-pc check mask: proven-safe accesses discharge
    their dynamic check, unprovable ones keep it, proven-OOB ones keep
    it armed so the interpreters contain the damage. *)

type verdict =
  | Safe  (** every realized lane access stays inside its segment *)
  | Oob  (** every realized lane access escapes its segment *)
  | Unknown  (** not provable either way: the dynamic check remains *)

type access =
  { pc : int  (** flat instruction index *)
  ; space : Ptx.Types.space  (** [Shared], [Local] or [Param] *)
  ; width : int
  ; store : bool
  ; verdict : verdict
  ; bound : Gpusim.Sancheck.bound option
      (** the extent backing the verdict; [None] for param accesses,
          which have no dynamic residue *)
  ; reason : string  (** deterministic human-readable justification *)
  }

type t =
  { accesses : access list  (** ascending by pc *)
  ; shared_bytes : int  (** declared shared segment bytes per block *)
  ; local_frame : int  (** per-thread local frame bytes *)
  ; num_instrs : int
  }

val analyze : Analysis.t -> t
(** When the kernel carries the allocator's shared spill sub-stack
    ({!Analysis.spill_stride}), accesses to it are held to the executing
    thread's own sub-stack, not just the symbol extent. *)

val counts : t -> int * int * int
(** [(safe, oob, unknown)] over the in-scope accesses. *)

val mask : ?force:bool -> t -> Gpusim.Sancheck.t
(** Compile the verdicts into the interpreters' per-pc check mask. *)
