(** The hybrid memory-safety sanitizer's static half, as S-code
    diagnostics.

    Runs {!Absint.Bounds} over a kernel — recognising the allocator's
    shared spill stack through {!Absint.Analysis.spill_stride} so spill
    traffic is held to per-thread sub-stacks — and renders the
    verdicts:

    - {b S401} (error): a shared access provably escapes its segment or
      its thread's spill sub-stack;
    - {b S402} (error): a local-frame or parameter-bank access provably
      out of bounds;
    - {b S403} (warning): bounds not statically provable — the access
      keeps its dynamic check.

    Proven-safe accesses emit nothing: their dynamic check is
    discharged. {!mask} compiles the same verdicts into the
    interpreters' {!Gpusim.Sancheck} check mask, so the diagnostics and
    the runtime residue can never disagree. *)

type discharge =
  { total : int  (** statically in-scope accesses (shared/local/param) *)
  ; safe : int  (** proven in bounds: dynamic check discharged *)
  ; oob : int  (** proven out of bounds *)
  ; residual : int  (** unprovable: dynamic check retained *)
  }

type report =
  { kernel : string
  ; bounds : Absint.Bounds.t
  ; discharge : discharge
  ; diags : Diagnostic.t list
  }

val proven_pct : discharge -> float
(** Percentage of in-scope accesses proven safe; 100 when there are
    none. *)

val sanitize_kernel :
  ?block_size:int ->
  ?num_blocks:int ->
  ?params:(string * int64) list ->
  Ptx.Kernel.t ->
  report
(** Analyse one kernel. [block_size] defaults to the analysis default
    (128); [num_blocks] and [params] specialise the proof to a concrete
    launch, which can only sharpen it. *)

val of_analysis : Absint.Analysis.t -> report
(** Reuse an existing analysis fixpoint. *)

val mask : ?force:bool -> report -> Gpusim.Sancheck.t
(** The per-pc check mask the report's verdicts compile to. *)

val check_kernel : ?block_size:int -> Ptx.Kernel.t -> Diagnostic.t list
(** The {!Gate}-shaped entry point: just the diagnostics. *)
