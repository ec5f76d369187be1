(* The benchmark's simulation-free parts: order statistics, the
   regression verdict, the result JSON, and BENCHMARK.json's limits. *)

open Perfkit

let close = Alcotest.float 1e-9

let triple = Alcotest.(triple close close close)

let test_quartiles () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stat.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "three" (1., 2., 3.) (Stat.quartiles [ 3.; 1.; 2. ]);
  Alcotest.check triple "two extrapolate" (0., 3., 6.) (Stat.quartiles [ 5.; 1. ]);
  Alcotest.check triple "seven" (0.88, 0.9, 0.93)
    (Stat.quartiles [ 0.91; 0.87; 0.95; 0.90; 0.88; 0.93; 0.89 ]);
  Alcotest.check close "median even" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "spread" (5.5 /. 5.5) (Stat.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50" 50. (Stat.percentile 50. xs);
  Alcotest.check close "p90" 90. (Stat.percentile 90. xs);
  Alcotest.check close "max" 100. (Stat.percentile 100. xs);
  Alcotest.check close "p90 of one" 7. (Stat.percentile 90. [ 7. ]);
  let hp = Alcotest.(option close) in
  Alcotest.check hp "19 samples: none" None (Stat.highest_percentile 19);
  Alcotest.check hp "20 samples: median" (Some 50.) (Stat.highest_percentile 20);
  Alcotest.check hp "99 samples: median" (Some 50.) (Stat.highest_percentile 99);
  Alcotest.check hp "100 samples: p90" (Some 90.) (Stat.highest_percentile 100);
  Alcotest.check hp "999 samples: p90" (Some 90.) (Stat.highest_percentile 999);
  Alcotest.check hp "1000 samples: p99" (Some 99.) (Stat.highest_percentile 1000);
  Alcotest.check hp "10000 samples: p99.9" (Some 99.9) (Stat.highest_percentile 10000)

let verdict = Alcotest.testable (Fmt.of_to_string Stat.verdict_to_string) ( = )

let test_verdicts () =
  let v ?(better = Stat.Lower) ?(bound = 0.1) parent change =
    Stat.verdict ~better ~bound ~parent ~change
  in
  let steady = [ 10.0; 10.1; 9.9; 10.05; 9.95; 10.0; 10.02; 9.98; 10.01; 9.99 ] in
  Alcotest.check verdict "same" Stat.Unchanged (v steady steady);
  Alcotest.check verdict "12% slower" Stat.Worse (v steady (List.map (( *. ) 1.12) steady));
  Alcotest.check verdict "8% slower is within the bound" Stat.Unchanged
    (v steady (List.map (( *. ) 1.08) steady));
  Alcotest.check verdict "5% faster every pair" Stat.Better
    (v steady (List.map (( *. ) 0.95) steady));
  Alcotest.check verdict "higher is better" Stat.Worse
    (v ~better:Stat.Higher steady (List.map (( *. ) 0.85) steady));
  let noisy = [ 8.; 12.; 9.; 11.; 10.; 7.; 13.; 10.; 9.5; 10.5 ] in
  Alcotest.check verdict "spread wider than the bound" Stat.Unresolved
    (v noisy (List.map (( *. ) 0.99) noisy));
  Alcotest.check verdict "wide spread, every change run better" Stat.Better
    (v noisy (List.map (fun x -> x *. 0.5) [ 8.; 9.; 8.5; 9.; 8.; 8.2; 9.; 8.8; 8.9; 8.1 ]));
  (* 8 of 10 pairs won is not enough *)
  let change = List.mapi (fun i x -> if i < 8 then x *. 0.9 else x *. 1.01) steady in
  Alcotest.check verdict "8/10 pairs" Stat.Unchanged (v steady change)

let test_json_round_trip () =
  let r =
    Json.Obj
      [ ("correct", Json.Bool true)
      ; ("attempted", Json.Num 1000.)
      ; ("failed", Json.Num 0.)
      ; ( "metrics"
        , Json.Obj
            [ ("wall_s", Json.Obj [ ("value", Json.Num 4.123456789012345); ("unit", Json.Str "s") ])
            ; ("p50_ms", Json.Obj [ ("value", Json.Num 0.1); ("unit", Json.Str "ms") ])
            ; ("tiny", Json.Obj [ ("value", Json.Num 1.5e-9); ("unit", Json.Str "MB/s") ])
            ] )
      ; ("note", Json.Str "quote \" backslash \\ tab\t")
      ; ("list", Json.Arr [ Json.Null; Json.Num (-2.5) ])
      ]
  in
  let s = Json.to_string r in
  Alcotest.(check bool) "parses back equal" true (Json.of_string s = r);
  Alcotest.(check string) "all digits, no more" "0.1" (Json.number 0.1);
  Alcotest.(check string) "integers plain" "1000" (Json.number 1000.);
  Alcotest.(check bool) "rejects trailing bytes" true
    (match Json.of_string "{} x" with _ -> false | exception Json.Parse_error _ -> true)

let spec_json () = Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)

let test_benchmark_json () =
  let j = spec_json () in
  Alcotest.(check (list string)) "within limits" [] (Spec.check j);
  let s = Spec.parse j in
  Alcotest.(check (list string)) "paths" [ "perfbench" ] s.Spec.paths;
  let n = List.length s.Spec.workloads in
  Alcotest.(check bool) "2..8 workloads" true (n >= 2 && n <= 8);
  Alcotest.(check bool) "<= 16 end-to-end" true (List.length s.Spec.end_to_end <= 16);
  Alcotest.(check bool) "<= 128 per-layer" true (List.length s.Spec.per_layer <= 128);
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) (m.Spec.name ^ " moves something") true
        (Spec.moves_of m.Spec.name <> None))
    s.Spec.per_layer

(* The checker must refuse what the limits forbid. *)
let test_spec_rejects () =
  let edit f = function
    | Json.Obj kv -> Json.Obj (List.map (fun (k, v) -> (k, f k v)) kv)
    | j -> j
  in
  let j = spec_json () in
  let refused what j' = Alcotest.(check bool) what true (Spec.check j' <> []) in
  refused "bound above 0.25"
    (edit
       (fun k v ->
         if k = "end_to_end" then
           Json.Arr
             (List.map
                (edit (fun k v -> if k = "bound" then Json.Num 0.3 else v))
                (Json.to_list v))
         else v)
       j);
  refused "bad metric name"
    (edit
       (fun k v ->
         if k = "per_layer" then
           Json.Arr (List.map (edit (fun k v -> if k = "name" then Json.Str "bad name!" else v)) (Json.to_list v))
         else v)
       j);
  refused "one workload"
    (edit (fun k v -> if k = "workloads" then Json.Arr [ List.hd (Json.to_list v) ] else v) j);
  refused "absolute command"
    (edit (fun k v -> if k = "command" then Json.Arr [ Json.Str "/bin/sh" ] else v) j);
  refused "extra key" (match j with Json.Obj kv -> Json.Obj (("extra", Json.Null) :: kv) | j -> j);
  refused "layer metric that moves nothing"
    (edit
       (fun k v ->
         if k = "per_layer" then
           Json.Arr
             (Json.Obj
                [ ("name", Json.Str "nowhere.s"); ("unit", Json.Str "s"); ("better", Json.Str "lower") ]
             :: Json.to_list v)
         else v)
       j)

let () =
  Alcotest.run "perfbench"
    [ ( "stat"
      , [ Alcotest.test_case "quartiles match python" `Quick test_quartiles
        ; Alcotest.test_case "percentiles and the ten-beyond rule" `Quick test_percentiles
        ; Alcotest.test_case "verdicts" `Quick test_verdicts
        ] )
    ; ("json", [ Alcotest.test_case "report round trip" `Quick test_json_round_trip ])
    ; ( "spec"
      , [ Alcotest.test_case "BENCHMARK.json within limits" `Quick test_benchmark_json
        ; Alcotest.test_case "limits enforced" `Quick test_spec_rejects
        ] )
    ]
