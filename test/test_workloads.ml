(* Tests for the synthetic workload suite: every application's kernel is
   well-formed, executable, deterministic, and has the resource profile
   its descriptor promises. *)

module T = Ptx.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny_input (a : Workloads.App.t) =
  let i = Workloads.App.default_input a in
  { i with Workloads.App.num_blocks = 2; iters = min 2 i.Workloads.App.iters
  ; passes = min 2 i.Workloads.App.passes }

let test_suite_shape () =
  check_int "22 applications" 22 (List.length Workloads.Suite.all);
  check_int "11 sensitive" 11 (List.length Workloads.Suite.sensitive);
  check_int "11 insensitive" 11 (List.length Workloads.Suite.insensitive);
  let abbrs = Workloads.Suite.abbrs in
  check_int "abbreviations unique" (List.length abbrs)
    (List.length (List.sort_uniq compare abbrs))

let test_find () =
  let a = Workloads.Suite.find "CFD" in
  Alcotest.(check string) "kernel name" "cuda_compute_flux" a.Workloads.App.kernel_name;
  (try
     let _ = Workloads.Suite.find "NOPE" in
     Alcotest.fail "unknown abbr must raise"
   with Not_found -> ())

let test_all_kernels_validate () =
  List.iter
    (fun a ->
       let k = Workloads.App.kernel a in
       match Ptx.Kernel.validate k with
       | Ok () -> ()
       | Error m -> Alcotest.failf "%s: %s" a.Workloads.App.abbr m)
    Workloads.Suite.all

let test_all_kernels_roundtrip () =
  List.iter
    (fun a ->
       let k = Workloads.App.kernel a in
       let s = Ptx.Printer.kernel_to_string k in
       let k2 = Ptx.Parser.parse_kernel_exn s in
       Alcotest.(check string)
         (a.Workloads.App.abbr ^ " round-trips")
         s
         (Ptx.Printer.kernel_to_string k2))
    Workloads.Suite.all

(* A build straight from the shape combinators, bypassing the shared
   kernels of [App.kernel]. *)
let fresh_build (a : Workloads.App.t) =
  let name = a.Workloads.App.kernel_name and k = a.Workloads.App.knobs in
  let shm_words = a.Workloads.App.shm_words in
  match a.Workloads.App.shape with
  | Workloads.App.Tiled -> Workloads.Shapes.tiled_reuse ~name k
  | Workloads.App.Streaming -> Workloads.Shapes.streaming ~name k
  | Workloads.App.Stencil -> Workloads.Shapes.stencil3 ~name k
  | Workloads.App.Shared_tile -> Workloads.Shapes.shared_tile ~name ~shm_words k
  | Workloads.App.Reduction -> Workloads.Shapes.reduction ~name ~shm_words k
  | Workloads.App.Gather -> Workloads.Shapes.gather ~name k

let printed = Ptx.Printer.kernel_to_string

let test_kernel_deterministic () =
  List.iter
    (fun a ->
       Alcotest.(check string)
         (a.Workloads.App.abbr ^ " deterministic")
         (printed (fresh_build a))
         (printed (Workloads.App.kernel a)))
    Workloads.Suite.all

(* ---------- shared kernels ---------- *)

let test_kernel_shared () =
  List.iter
    (fun a ->
       check (a.Workloads.App.abbr ^ " one physical kernel") true
         (Workloads.App.kernel a == Workloads.App.kernel a))
    Workloads.Suite.all

(* Four domains race on the first use of every app's kernel (renamed, so
   no earlier test has built it): each app still gets one kernel. *)
let test_kernel_shared_across_domains () =
  let apps =
    Array.of_list
      (List.map
         (fun a ->
            { a with Workloads.App.kernel_name = a.Workloads.App.kernel_name ^ "_race" })
         Workloads.Suite.all)
  in
  let n = Array.length apps in
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun d ->
      Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        (* each domain walks the apps from its own starting point *)
        Array.init n (fun i ->
          let j = (i + (d * n / 4)) mod n in
          (j, Workloads.App.kernel apps.(j)))))
  in
  Atomic.set go true;
  let seen = Array.make n None in
  List.iter
    (fun d ->
       Array.iter
         (fun (j, k) ->
            match seen.(j) with
            | None -> seen.(j) <- Some k
            | Some k0 ->
              check (apps.(j).Workloads.App.abbr ^ " same kernel on every domain") true
                (k == k0))
         (Domain.join d))
    domains;
  Array.iteri
    (fun j a ->
       check (a.Workloads.App.abbr ^ " later calls share it") true
         (Option.get seen.(j) == Workloads.App.kernel a))
    apps

let test_kernel_keyed_by_builder_inputs () =
  List.iter
    (fun (a : Workloads.App.t) ->
       let k = Workloads.App.kernel a in
       let knobs =
         { a with
           Workloads.App.knobs =
             { a.Workloads.App.knobs with Workloads.Shapes.flops = a.Workloads.App.knobs.Workloads.Shapes.flops + 1 }
         }
       in
       let shm = { a with Workloads.App.shm_words = a.Workloads.App.shm_words + 32 } in
       check (a.Workloads.App.abbr ^ " other knobs, own kernel") true
         (Workloads.App.kernel knobs != k
          && printed (Workloads.App.kernel knobs) = printed (fresh_build knobs));
       check (a.Workloads.App.abbr ^ " other shm_words, own kernel") true
         (Workloads.App.kernel shm != k
          && printed (Workloads.App.kernel shm) = printed (fresh_build shm));
       check (a.Workloads.App.abbr ^ " a new abbr shares the kernel") true
         (Workloads.App.kernel { a with Workloads.App.abbr = "X" ^ a.Workloads.App.abbr } == k))
    Workloads.Suite.all

(* Nothing the compiler, the profiler or the advisor does to an app
   mutates its shared kernel. *)
let test_kernel_survives_use () =
  let before = List.map (fun a -> printed (Workloads.App.kernel a)) Workloads.Suite.all in
  let engine = Crat.Engine.create () in
  let cfg = Gpusim.Config.fermi in
  List.iter
    (fun a ->
       let input = tiny_input a in
       ignore (Crat.Optimizer.plan ~mode:`Static engine cfg a);
       ignore (Crat.Optimizer.plan ~mode:`Profile ~profile_input:input engine cfg a);
       ignore (Crat.Lint.lint a);
       ignore (Crat.Lint.validate ~input a))
    Workloads.Suite.all;
  List.iter2
    (fun a s ->
       Alcotest.(check string)
         (a.Workloads.App.abbr ^ " kernel unchanged")
         (Digest.to_hex (Digest.string s))
         (Digest.to_hex (Digest.string (printed (Workloads.App.kernel a)))))
    Workloads.Suite.all before

let test_block_sizes_warp_multiple () =
  List.iter
    (fun a ->
       check
         (a.Workloads.App.abbr ^ " block multiple of 32")
         true
         (a.Workloads.App.block_size mod 32 = 0))
    Workloads.Suite.all

let test_register_demand_bands () =
  (* sensitive apps were tuned for higher pressure than insensitive *)
  let pressure a =
    let flow = Cfg.Flow.of_kernel (Workloads.App.kernel a) in
    Cfg.Liveness.max_pressure (Cfg.Liveness.compute flow)
  in
  List.iter
    (fun a ->
       let p = pressure a in
       check (a.Workloads.App.abbr ^ " insensitive pressure < 36") true (p < 36))
    Workloads.Suite.insensitive;
  let heavy = List.map Workloads.Suite.find [ "CFD"; "FDTD"; "STE"; "DTC" ] in
  List.iter
    (fun a ->
       let p = pressure a in
       check (a.Workloads.App.abbr ^ " pressure above hardware cap") true (p > 63))
    heavy

let test_shared_decls_match_descriptor () =
  List.iter
    (fun a ->
       check_int
         (a.Workloads.App.abbr ^ " shared bytes")
         (a.Workloads.App.shm_words * 4)
         (Workloads.App.shared_decl_bytes a))
    Workloads.Suite.all

let test_all_apps_emulate () =
  List.iter
    (fun a ->
       let i = tiny_input a in
       let out =
         Gpusim.Memory.read_f32_array
           (Gpusim.Emulator.run (Workloads.App.launch a ~input:i ()))
           ~base:Workloads.Data.out_base (Workloads.App.output_words a i)
       in
       (* reductions write per-block results; everyone else per-thread *)
       let nonzero = Array.exists (fun v -> v <> 0.0) out in
       check (a.Workloads.App.abbr ^ " produced output") true nonzero;
       check
         (a.Workloads.App.abbr ^ " output finite")
         true
         (Array.for_all (fun v -> Float.is_finite v) out))
    Workloads.Suite.all

let test_data_deterministic () =
  let a = Workloads.Suite.find "CFD" in
  (* one image per input, so pin its content: the digest frozen with
     it, and the digest recomputed from a copy *)
  let m = Workloads.App.memory a (tiny_input a) in
  List.iter
    (fun (name, m) ->
       Alcotest.(check string) name "dbbd439d0ec844de03f26ee3ed229723"
         (Digest.to_hex (Gpusim.Memory.digest m)))
    [ ("same seed, same memory", m); ("a copy digests the same", Gpusim.Memory.copy m) ];
  let x = Workloads.Data.uniform_f32 ~seed:3 16 in
  let y = Workloads.Data.uniform_f32 ~seed:3 16 in
  check "uniform_f32 deterministic" true (x = y);
  check "values in [0,1)" true (Array.for_all (fun v -> v >= 0. && v < 1.) x);
  let u = Workloads.Data.uniform_u32 ~seed:4 ~bound:7 32 in
  check "u32 bounded" true (Array.for_all (fun v -> v >= 0 && v < 7) u)

let test_inputs_unique_labels () =
  List.iter
    (fun (a : Workloads.App.t) ->
       let labels = List.map (fun i -> i.Workloads.App.ilabel) a.Workloads.App.inputs in
       check_int (a.Workloads.App.abbr ^ " labels unique") (List.length labels)
         (List.length (List.sort_uniq compare labels));
       check (a.Workloads.App.abbr ^ " has default") true
         (List.mem "default" labels))
    Workloads.Suite.all

let test_input_sensitivity_apps_have_variants () =
  List.iter
    (fun abbr ->
       let a = Workloads.Suite.find abbr in
       check (abbr ^ " has several inputs") true
         (List.length a.Workloads.App.inputs >= 3))
    [ "CFD"; "BLK" ]

let test_gather_uses_aux () =
  let a = Workloads.Suite.find "SPMV" in
  let i = tiny_input a in
  check "aux param bound" true
    (List.mem_assoc "aux" (Workloads.App.params a i))

let () =
  Alcotest.run "workloads"
    [ ( "suite"
      , [ Alcotest.test_case "shape" `Quick test_suite_shape
        ; Alcotest.test_case "find" `Quick test_find
        ; Alcotest.test_case "unique input labels" `Quick test_inputs_unique_labels
        ; Alcotest.test_case "fig18 apps have variants" `Quick
            test_input_sensitivity_apps_have_variants
        ] )
    ; ( "kernels"
      , [ Alcotest.test_case "all validate" `Quick test_all_kernels_validate
        ; Alcotest.test_case "all round-trip" `Quick test_all_kernels_roundtrip
        ; Alcotest.test_case "deterministic" `Quick test_kernel_deterministic
        ; Alcotest.test_case "block sizes" `Quick test_block_sizes_warp_multiple
        ; Alcotest.test_case "register-demand bands" `Quick test_register_demand_bands
        ; Alcotest.test_case "shared decls" `Quick test_shared_decls_match_descriptor
        ] )
    ; ( "shared kernels"
      , [ Alcotest.test_case "one per descriptor" `Quick test_kernel_shared
        ; Alcotest.test_case "one across racing domains" `Quick
            test_kernel_shared_across_domains
        ; Alcotest.test_case "keyed by builder inputs" `Quick
            test_kernel_keyed_by_builder_inputs
        ; Alcotest.test_case "never mutated" `Slow test_kernel_survives_use
        ] )
    ; ( "execution"
      , [ Alcotest.test_case "all apps emulate" `Slow test_all_apps_emulate
        ; Alcotest.test_case "deterministic data" `Quick test_data_deterministic
        ; Alcotest.test_case "gather uses aux" `Quick test_gather_uses_aux
        ] )
    ]
