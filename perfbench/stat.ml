(* Order statistics and the regression verdict of [perf.exe --compare]. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stat.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(xs, n=4)]
   (its default "exclusive" method), so spreads computed here match the
   ones any other tool derives from the same result files. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stat.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)
  end

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* Interquartile distance as a share of the median: the run-to-run
   spread a bound is compared against. *)
let spread xs =
  let m = median xs in
  if m = 0. then (if iqr xs = 0. then 0. else infinity) else iqr xs /. Float.abs m

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The highest reported percentile that still has at least ten samples
   beyond it; [None] below 20 samples, where even the median has fewer. *)
let highest_percentile n =
  List.fold_left
    (fun best p ->
      if float_of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9 then Some p else best)
    None [ 50.; 90.; 99.; 99.9 ]

type better =
  | Lower
  | Higher

type verdict =
  | Worse
  | Unresolved
  | Better
  | Unchanged

let verdict_to_string = function
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Better -> "better"
  | Unchanged -> "unchanged"

let improves better a b =
  match better with
  | Lower -> a < b
  | Higher -> a > b

(* [parent] and [change] are one metric's values over repeated runs of
   each commit, paired by position (alternate the side that runs first).
   - worse: the change's median is worse than the parent's by more than
     [bound] (a share of the parent's median);
   - unresolved: the spread of either side is wider than the bound,
     unless every change run beats every parent run;
   - better: the change wins at least 9 of 10 pairs (ties count for
     neither) and the medians differ by more than the parent's IQR;
   - unchanged otherwise. *)
let verdict ~better ~bound ~parent ~change =
  let mp = median parent and mc = median change in
  let base = Float.abs mp in
  let worse_by =
    let d = match better with Lower -> mc -. mp | Higher -> mp -. mc in
    if base = 0. then (if d > 0. then infinity else 0.) else d /. base
  in
  if worse_by > bound then Worse
  else
    let all_better =
      List.for_all (fun c -> List.for_all (fun p -> improves better c p) parent) change
    in
    if Float.max (spread parent) (spread change) > bound then
      if all_better then Better else Unresolved
    else
      let rec pairs ps cs =
        match (ps, cs) with
        | p :: ps, c :: cs -> (p, c) :: pairs ps cs
        | _ -> []
      in
      let ps = pairs parent change in
      let wins = List.length (List.filter (fun (p, c) -> improves better c p) ps) in
      if
        ps <> []
        && wins * 10 >= 9 * List.length ps
        && Float.abs (mc -. mp) > iqr parent
      then Better
      else Unchanged
