open Ptx
module V = Gpusim.Value

type runner =
  | Run_kernel of Kernel.t
  | Run_machine of Machine.Lower.t

type t =
  { block_size : int
  ; num_blocks : int
  ; params : (string * V.t) list
  ; mem_words : (int64 * int64) list
  ; descr : string
  }

(* splitmix64: deterministic sampling, independent of any global state *)
let mix z =
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix2 b c =
  mix (Int64.add (Int64.of_int b) (Int64.mul 1000003L (Int64.of_int c)))

let mix3 a b c = mix (Int64.logxor (mix (Int64.of_int a)) (mix2 b c))

let kernel_of = function
  | Run_kernel k -> k
  | Run_machine m -> m.Machine.Lower.image.Gpusim.Image.kernel

(* The warp instructions one side may run on a trial input. A pair
   whose static match failed may loop for ever on a sampled input (a
   miscompiled loop exit, say); a side past the budget ends the search
   without a witness, so the verdict is unknown, never refuted. *)
let trial_budget = 1_000_000

let exec runner launch =
  let max_warp_instrs = trial_budget in
  match runner with
  | Run_kernel _ -> Gpusim.Emulator.run ~max_warp_instrs launch
  | Run_machine m -> Machine.Exec.run ~max_warp_instrs m launch

(* Observable result: written, non-zero global words below the
   per-thread local heap (local memory is backing store for spills and
   frames — not part of the kernel's observable output — and shared
   segments are per-block scratch discarded at block end). *)
let final_words mem =
  Gpusim.Memory.fold
    (fun addr v acc ->
      if Int64.unsigned_compare addr Gpusim.Image.local_base < 0 then
        let bits = V.to_bits v in
        if bits <> 0L then (addr, bits) :: acc else acc
      else acc)
    mem []
  |> List.sort compare

let run_side runner ~block_size ~num_blocks ~params mem =
  let launch =
    Gpusim.Launch.make ~params ~kernel:(kernel_of runner) ~block_size
      ~num_blocks mem
  in
  match exec runner launch with
  | final -> Ok (final_words final)
  | exception Gpusim.Simt.Over_budget ->
    (* not an outcome of this input: the search stops *)
    raise Gpusim.Simt.Over_budget
  | exception e -> Error (Printexc.to_string e)

let diff_words l r =
  let rec go l r =
    match (l, r) with
    | [], [] -> None
    | (a, x) :: _, [] -> Some (Printf.sprintf "left wrote [%Ld]=%Ld, right did not" a x)
    | [], (a, x) :: _ -> Some (Printf.sprintf "right wrote [%Ld]=%Ld, left did not" a x)
    | (a1, x1) :: tl1, (a2, x2) :: tl2 ->
      if a1 = a2 && Int64.equal x1 x2 then go tl1 tl2
      else if a1 = a2 then
        Some (Printf.sprintf "[%Ld]: left %Ld, right %Ld" a1 x1 x2)
      else if Int64.unsigned_compare a1 a2 < 0 then
        Some (Printf.sprintf "left wrote [%Ld]=%Ld, right did not" a1 x1)
      else Some (Printf.sprintf "right wrote [%Ld]=%Ld, left did not" a2 x2)
  in
  go l r

let try_input ~left ~right ~block_size ~num_blocks ~params ~mem_words =
  let mem = Gpusim.Memory.create () in
  List.iter (fun (a, bits) -> Gpusim.Memory.store_bits mem a ~isf:false bits)
    mem_words;
  match
    ( run_side left ~block_size ~num_blocks ~params mem
    , run_side right ~block_size ~num_blocks ~params mem )
  with
  | Ok wl, Ok wr -> diff_words wl wr
  | _ -> None (* a raising execution is not a semantic divergence *)

let int_pool ~block_size seeds =
  seeds
  @ [ 0L; 1L; 2L; 3L; 4L; 7L; 8L; 15L; 16L; 31L; 32L; 33L; 63L; 64L; 100L
    ; 127L; 128L
    ; Int64.of_int block_size
    ; Int64.of_int (block_size - 1)
    ]

let float_pool = [ 0.0; 1.0; 2.0; -1.0; 0.5; 3.25 ]

let buffer_words = 256

let sample_input ~salt ~trial ~block_size ~params_ty ~seeds =
  let params = ref [] and mem_words = ref [] in
  List.iteri
    (fun j (p, ty) ->
      let v =
        match ty with
        | Types.U64 | Types.B64 | Types.S64 ->
          (* treat as a buffer pointer: distinct bases, seeded contents *)
          let base = Int64.of_int (0x10000 + (j * buffer_words * 8 * 2)) in
          for w = 0 to buffer_words - 1 do
            let bits =
              Int64.logand (mix3 salt trial ((j * buffer_words) + w))
                0xFFFFFFFFL
            in
            mem_words :=
              (Int64.add base (Int64.of_int (w * 4)), bits) :: !mem_words
          done;
          V.I base
        | ty when Types.is_float ty ->
          let pool = float_pool in
          let n = List.length pool in
          V.F (List.nth pool ((trial + j) mod n))
        | _ ->
          let pool =
            int_pool ~block_size
              (match List.assoc_opt p seeds with
               | Some s -> s
               | None -> [])
          in
          let n = List.length pool in
          if trial < 2 * n then V.I (List.nth pool ((trial + (j * 5)) mod n))
          else V.I (Int64.logand (mix3 salt trial j) 0x1FFL)
      in
      params := (p, v) :: !params)
    params_ty;
  (List.rev !params, List.rev !mem_words)

let search ~left ~right ~block_size ?(num_blocks = 1) ?(trials = 48)
    ?(salt = 0) ~params_ty ~seeds () =
  let rec go trial =
    if trial >= trials then None
    else
      let params, mem_words =
        sample_input ~salt ~trial ~block_size ~params_ty ~seeds
      in
      match
        try_input ~left ~right ~block_size ~num_blocks ~params ~mem_words
      with
      | Some descr ->
        Some { block_size; num_blocks; params; mem_words; descr }
      | None -> go (trial + 1)
      | exception Gpusim.Simt.Over_budget -> None
  in
  go 0

let replay ~left ~right (w : t) =
  try
    try_input ~left ~right ~block_size:w.block_size ~num_blocks:w.num_blocks
      ~params:w.params ~mem_words:w.mem_words
  with Gpusim.Simt.Over_budget -> None

let pp_params fmt params =
  Format.fprintf fmt "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ", ")
       (fun f (p, v) -> Format.fprintf f "%s=%a" p V.pp v))
    params
