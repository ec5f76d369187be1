(* The sweep driver shared by `crat verify|lint|sanitize|equiv` and by
   the daemon's server-side sweeps: one place that owns app selection
   (APP | --all | --corpus | --codes), report rendering, report-file
   tee-writing (--out), and the per-kind exit semantics. The CLI builds
   its four commands through [command]; `crat serve` answers [Sweep]
   requests through [serve_sweep] (same drivers, rendered to a buffer,
   never exiting). *)

open Cmdliner

let config_of_kepler kepler =
  if kepler then Gpusim.Config.kepler else Gpusim.Config.fermi

(* CLI-facing lookup: bad names are a usage error. *)
let find_app abbr =
  try Workloads.Suite.find abbr
  with Not_found ->
    Format.eprintf "unknown application %S; known: %s@." abbr
      (String.concat " " Workloads.Suite.abbrs);
    exit 2

type kind = Verify | Lint | Sanitize | Equiv

let kind_to_string = function
  | Verify -> "verify"
  | Lint -> "lint"
  | Sanitize -> "sanitize"
  | Equiv -> "equiv"

let kind_of_string = function
  | "verify" -> Some Verify
  | "lint" -> Some Lint
  | "sanitize" -> Some Sanitize
  | "equiv" -> Some Equiv
  | _ -> None

(* diagnostic-code namespace of each sweep (None = the full listing) *)
let codes_prefix = function
  | Verify -> None
  | Lint -> Some "P"
  | Sanitize -> Some "S"
  | Equiv -> Some "E"

let has_corpus = function Verify | Equiv -> true | Lint | Sanitize -> false

(* Union of the per-kind knobs; each kind reads the ones it documents. *)
type options =
  { kepler : bool
  ; regs : int option
  ; spare : int
  ; linear_scan : bool
  ; validate : bool
  }

let default_options =
  { kepler = false; regs = None; spare = 0; linear_scan = false
  ; validate = false }

(* ---------- report rendering (all output goes through [fmt]) ---------- *)

let print_diags fmt diags =
  List.iter
    (fun d -> Format.fprintf fmt "    %s@." (Verify.Diagnostic.to_string d))
    (Verify.Diagnostic.sort diags)

(* Verify one stage; prints a one-line summary (plus the diagnostics when
   there are any) and returns whether an error-severity one fired. *)
let verify_stage fmt abbr stage diags =
  let errs = List.length (Verify.Diagnostic.errors diags) in
  let warns = List.length (Verify.Diagnostic.warnings diags) in
  if diags = [] then Format.fprintf fmt "%-5s %-10s ok@." abbr stage
  else begin
    Format.fprintf fmt "%-5s %-10s %d error(s), %d warning(s)@." abbr stage
      errs warns;
    print_diags fmt diags
  end;
  errs > 0

let strategy_of o =
  if o.linear_scan then Regalloc.Allocator.Linear_scan
  else Regalloc.Allocator.Chaitin_briggs

(* The allocator rejects a register limit below the kernel's feasible
   minimum with [Failure]: an error of that app, reported in its place,
   not of the program. *)
let print_error fmt abbr stage msg =
  Format.fprintf fmt "%-5s %-10s error: %s@." abbr stage msg

(* The three compiler stages of one app under the sweep's options. *)
let stages o app =
  Crat.Compile.stages ~strategy:(strategy_of o) ~shared_spare:o.spare
    ?regs:o.regs app

let verify_app fmt o (app : Workloads.App.t) =
  let abbr = app.Workloads.App.abbr in
  let block_size = app.Workloads.App.block_size in
  let k, k', alloc = stages o app in
  let pre =
    verify_stage fmt abbr "pre-opt" (Verify.Checker.check_kernel ~block_size k)
  in
  let post =
    verify_stage fmt abbr "post-opt" (Verify.Checker.check_kernel ~block_size k')
  in
  let alloc =
    match alloc with
    | Ok a ->
      verify_stage fmt abbr "post-alloc" (Verify.Checker.check_allocation a)
    | Error msg ->
      print_error fmt abbr "post-alloc" msg;
      true
  in
  pre || post || alloc

let verify_corpus fmt () =
  List.fold_left
    (fun bad (c : Verify.Corpus.case) ->
       let diags = Verify.Corpus.diagnostics_of c in
       let hit =
         List.exists
           (fun d -> d.Verify.Diagnostic.code = c.Verify.Corpus.expect)
           diags
       in
       Format.fprintf fmt "corpus %-9s expecting %s: %s@." c.Verify.Corpus.label
         c.Verify.Corpus.expect
         (if hit then "caught as expected" else "NOT CAUGHT");
       print_diags fmt diags;
       bad || not hit)
    false
    (Verify.Corpus.cases ())

let lint_app fmt o (app : Workloads.App.t) =
  let abbr = app.Workloads.App.abbr in
  let cfg = config_of_kepler o.kepler in
  let report, failures =
    if o.validate then Crat.Lint.validate ~cfg app
    else (Crat.Lint.lint ~cfg ?regs:o.regs app, [])
  in
  let n = List.length report.Verify.Advisor.diags in
  Format.fprintf fmt "%-5s %d advisory(s), MAXLIVE %d%s@." abbr n
    report.Verify.Advisor.pressure.Absint.Pressure.maxlive
    (if o.validate then
       if failures = [] then ", claims validated" else ", CLAIMS VIOLATED"
     else "");
  print_diags fmt report.Verify.Advisor.diags;
  List.iter (fun f -> Format.fprintf fmt "    validation: %s@." f) failures;
  failures <> []

let sanitize_app fmt o (app : Workloads.App.t) =
  let abbr = app.Workloads.App.abbr in
  let bad = ref false in
  let total = ref 0 and safe = ref 0 in
  List.iter
    (fun (sr : Crat.Sanitize.stage_report) ->
       match sr.Crat.Sanitize.report with
       | Error msg ->
         print_error fmt abbr sr.Crat.Sanitize.stage msg;
         bad := true
       | Ok r ->
         let d = r.Verify.Sanitize.discharge in
         total := !total + d.Verify.Sanitize.total;
         safe := !safe + d.Verify.Sanitize.safe;
         Format.fprintf fmt
           "%-5s %-10s %3d access(es): %3d safe, %d oob, %d residual (%.1f%% proven)@."
           abbr sr.Crat.Sanitize.stage d.Verify.Sanitize.total
           d.Verify.Sanitize.safe d.Verify.Sanitize.oob
           d.Verify.Sanitize.residual
           (Verify.Sanitize.proven_pct d);
         print_diags fmt r.Verify.Sanitize.diags;
         if Verify.Diagnostic.has_errors r.Verify.Sanitize.diags then bad := true)
    (Crat.Sanitize.stages ?regs:o.regs ~spare:o.spare app);
  if o.validate then begin
    let dyn = Crat.Sanitize.validate ~cfg:(config_of_kepler o.kepler) app in
    let c = dyn.Crat.Sanitize.counters in
    let seen = Gpusim.Sancheck.seen c in
    let checked = Gpusim.Sancheck.checked c in
    let discharged =
      if seen = 0 then 100.0
      else 100.0 *. float_of_int (seen - checked) /. float_of_int seen
    in
    Format.fprintf fmt
      "%-5s %-10s %d lane access(es) monitored, %d checked (%.1f%% discharged), %d violation(s)@."
      abbr "dynamic" seen checked discharged
      (Gpusim.Sancheck.violations c);
    List.iter
      (fun f -> Format.fprintf fmt "    sanitize: %s@." f)
      dyn.Crat.Sanitize.failures;
    if dyn.Crat.Sanitize.failures <> [] then bad := true
  end;
  (!bad, (!total, !safe))

(* Translation-validate the three transformation edges of one app:
   pre-opt vs post-opt, post-opt input vs allocated kernel, allocated
   PTX vs lowered machine code. Returns (failed, unproved): an edge was
   refuted, or the kernel could not be allocated. *)
let equiv_app fmt o (app : Workloads.App.t) =
  let abbr = app.Workloads.App.abbr in
  let block_size = app.Workloads.App.block_size in
  let failed = ref false and unproved = ref false in
  let report (out : Equiv.Check.outcome) =
    (match out.Equiv.Check.verdict with
     | Equiv.Check.Proved -> ()
     | Equiv.Check.Refuted _ -> failed := true
     | Equiv.Check.Unknown _ -> unproved := true);
    Format.fprintf fmt "%-5s %a@." abbr Equiv.Check.pp_outcome out
  in
  let k, k', alloc = stages o app in
  report (Equiv.Check.check_opt ~block_size ~left:k ~right:k' ());
  (match alloc with
   | Ok a ->
     report (Equiv.Check.check_alloc a);
     report (Equiv.Check.check_lower (Machine.Lower.run a))
   | Error msg ->
     print_error fmt abbr "alloc" msg;
     failed := true);
  (!failed, !unproved)

let equiv_corpus fmt () =
  List.fold_left
    (fun bad (c : Equiv.Corpus.case) ->
       let o = Equiv.Corpus.outcome_of c in
       let diags = Verify.Equiv_check.diagnostics_of o in
       let hit =
         List.exists
           (fun d -> d.Verify.Diagnostic.code = c.Equiv.Corpus.expect)
           diags
       in
       let replayed =
         match o.Equiv.Check.verdict with
         | Equiv.Check.Refuted w ->
           let left, right = Equiv.Corpus.runners c in
           Equiv.Witness.replay ~left ~right w <> None
         | _ -> false
       in
       Format.fprintf fmt "corpus %-17s expecting %s: %s@." c.Equiv.Corpus.label
         c.Equiv.Corpus.expect
         (if hit && replayed then "refuted, witness replays"
          else if hit then "refuted, but witness does NOT replay"
          else "NOT REFUTED");
       print_diags fmt diags;
       bad || not (hit && replayed))
    false
    (Equiv.Corpus.cases ())

(* ---------- the driver ---------- *)

(* Run one sweep over [apps]; returns whether the process should exit
   nonzero. [all] tightens equiv's exit condition (an unproved edge only
   fails a whole-suite sweep, matching the CI gate). *)
let run kind ~fmt ~options:o ~corpus ~all apps =
  match kind with
  | Verify ->
    let bad =
      List.fold_left (fun acc app -> verify_app fmt o app || acc) false apps
    in
    if corpus then verify_corpus fmt () || bad else bad
  | Lint ->
    List.fold_left (fun acc app -> lint_app fmt o app || acc) false apps
  | Sanitize ->
    let bad, total, safe =
      List.fold_left
        (fun (acc, t, sf) app ->
           let b, (t', sf') = sanitize_app fmt o app in
           (b || acc, t + t', sf + sf'))
        (false, 0, 0) apps
    in
    if all && total > 0 then
      Format.fprintf fmt "suite: %d static access(es), %d proven safe (%.1f%%)@."
        total safe
        (100.0 *. float_of_int safe /. float_of_int total);
    bad
  | Equiv ->
    let failed, unproved =
      List.fold_left
        (fun (f, u) app ->
           let f', u' = equiv_app fmt o app in
           (f || f', u || u'))
        (false, false) apps
    in
    let bad = if corpus then equiv_corpus fmt () else false in
    failed || bad || (all && unproved)

(* Daemon entry point: same drivers, rendered into a buffer, never
   exiting. [apps = []] means the whole suite; an unknown abbreviation
   raises (the daemon turns it into a protocol error); an unknown kind
   returns [None]. *)
let serve_sweep ~kind ~apps =
  match kind_of_string kind with
  | None -> None
  | Some k ->
    let resolved, all =
      match apps with
      | [] -> (Workloads.Suite.all, true)
      | l ->
        ( List.map
            (fun a ->
               try Workloads.Suite.find a
               with Not_found -> failwith (Printf.sprintf "unknown app %S" a))
            l
        , false )
    in
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    let failed = run k ~fmt ~options:default_options ~corpus:false ~all resolved in
    Format.pp_print_flush fmt ();
    Some (Buffer.contents buf, failed)

(* ---------- report-file tee ---------- *)

(* A formatter that streams to stdout while capturing everything for
   --out FILE (replacing the Makefile's `| tee` shell plumbing). *)
let with_report_fmt out f =
  match out with
  | None -> f Format.std_formatter
  | Some path ->
    let buf = Buffer.create 4096 in
    let fmt =
      Format.make_formatter
        (fun s pos len ->
           output_substring stdout s pos len;
           Buffer.add_substring buf s pos len)
        (fun () -> flush stdout)
    in
    let r = f fmt in
    Format.pp_print_flush fmt ();
    Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
    r

(* ---------- the shared cmdliner surface ---------- *)

let app_opt =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"APP"
         ~doc:"Application abbreviation; omit with $(b,--all).")

let all_arg ~doc = Arg.(value & flag & info [ "all" ] ~doc)

let codes_arg =
  Arg.(value & flag & info [ "codes" ]
         ~doc:"List the documented diagnostic codes and exit.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Also write the report to $(docv) (tee: output still goes to \
               stdout).")

(* Build one sweep command. [options_term] supplies the kind-specific
   knobs; [all_doc] keeps each command's historical --all wording. *)
let command kind ~doc ~all_doc ~corpus_doc options_term =
  let name = kind_to_string kind in
  let corpus_term =
    if has_corpus kind then
      Arg.(value & flag & info [ "corpus" ] ~doc:corpus_doc)
    else Term.const false
  in
  let run_cmd abbr all corpus codes out options =
    if codes then
      print_endline
        (Verify.Diagnostic.codes_listing ?prefix:(codes_prefix kind) ())
    else begin
      let apps =
        if all then Workloads.Suite.all
        else
          match abbr with
          | Some a -> [ find_app a ]
          | None ->
            if corpus then []
            else begin
              Format.eprintf "%s: name an APP or pass --all@." name;
              exit 2
            end
      in
      let bad =
        with_report_fmt out (fun fmt ->
          run kind ~fmt ~options ~corpus ~all apps)
      in
      if bad then exit 1
    end
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run_cmd $ app_opt $ all_arg ~doc:all_doc $ corpus_term
          $ codes_arg $ out_arg $ options_term)
