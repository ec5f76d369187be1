(** Workload descriptors: one per application of the paper's Table 3.

    Each descriptor names a {!Shapes} combinator plus the knob settings
    that reproduce the application's published resource profile (block
    size, shared-memory use, register demand, cache working set), and a
    list of input scales (the paper's input-sensitivity study reuses the
    same kernel across inputs — sizes are runtime parameters). *)

type shape =
  | Tiled
  | Streaming
  | Stencil
  | Shared_tile
  | Reduction
  | Gather

type input =
  { ilabel : string
  ; ws_words : int  (** per-block working-set words *)
  ; iters : int
  ; passes : int
  ; num_blocks : int  (** total blocks simulated on the SM *)
  ; seed : int
  }

type t =
  { abbr : string
  ; app_name : string
  ; kernel_name : string
  ; suite_name : string
  ; sensitive : bool
  ; block_size : int
  ; default_regs : int
      (** the nvcc-like default per-thread register count used by the
          MaxTLP/OptTLP baselines *)
  ; shape : shape
  ; knobs : Shapes.knobs
  ; shm_words : int  (** application's own shared-memory tile (0 = none) *)
  ; inputs : input list  (** head = default input *)
  }

val kernel : t -> Ptx.Kernel.t
(** The (SSA, pre-allocation) kernel, built from the descriptor's
    [kernel_name], [shape], [knobs] and [shm_words] on first use and
    shared from then on: every call with the same builder inputs, from
    any domain, returns the same physical kernel. A shared kernel must
    never be mutated (its [body] array included); derive a new kernel
    instead, as every pass does. *)

val default_input : t -> input
val find_input : t -> string -> input
val memory : t -> input -> Gpusim.Memory.t
(** The initial global memory: one input region per block, laid out
    block after block, plus a gather app's index array. Each word's
    value depends only on its index and the input's seed, so the image
    of a smaller grid is the same regions as a larger grid's first
    ones. The image is built once per distinct (gather, [num_blocks],
    [ws_words], [seed]), frozen ({!Gpusim.Memory.freeze}, which
    computes its digest) and shared from then on: every call with the
    same fields, from any domain, returns the same physical image. *)

val params : t -> input -> (string * Gpusim.Value.t) list

val int_params : t -> input -> (string * int64) list
(** The integer-valued {!params}: the launch facts the static analyses
    specialise on. *)

val shared_decl_bytes : t -> int
(** Shared memory declared by the application kernel itself (ShmSize). *)

val launch :
  t -> ?kernel:Ptx.Kernel.t -> ?tlp:int -> input:input -> unit -> Gpusim.Launch.t
(** Build a launch on the input's shared {!memory} image. The optional
    [kernel] substitutes an allocated kernel for the SSA one; [tlp]
    (default 1) sets the launch's TLP limit. Calling twice with the
    same arguments yields launches that share their kernel and memory
    image. *)

val output_words : t -> input -> int
val pp : Format.formatter -> t -> unit
