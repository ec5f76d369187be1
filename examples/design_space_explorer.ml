(* Design-space exploration (the paper's Figure 2 / motivating example).

     dune exec examples/design_space_explorer.exe [-- APP]

   Prints the (register per-thread, TLP) surface for one application:
   each stair register count is allocated and simulated at every
   feasible TLP, normalised to the MaxTLP baseline. The staircase shape
   of Figure 11 and the pruning decisions are shown alongside. *)

let () =
  let abbr = if Array.length Sys.argv > 1 then Sys.argv.(1) else "CFD" in
  let app = Workloads.Suite.find abbr in
  let cfg = Gpusim.Config.fermi in
  let resource = Crat.Resource.analyze cfg app in
  Format.printf "design space for %s on %s@." app.Workloads.App.app_name
    cfg.Gpusim.Config.name;
  Format.printf "%a@.@." Crat.Resource.pp resource;

  (* the staircase: rightmost point of each stair (Fig. 11) *)
  let stairs = Crat.Design_space.stairs cfg resource in
  Format.printf "staircase:";
  List.iter (fun p -> Format.printf " %a" Crat.Design_space.pp_point p) stairs;
  Format.printf "@.";
  let engine = Crat.Engine.create () in
  let pr =
    Crat.Opttlp.profile engine cfg app ~max_tlp:resource.Crat.Resource.max_tlp ()
  in
  let pruned = Crat.Design_space.prune cfg resource ~opt_tlp:pr.Crat.Opttlp.opt_tlp in
  Format.printf "OptTLP=%d -> %d candidate(s) after pruning:@."
    pr.Crat.Opttlp.opt_tlp (List.length pruned);
  List.iter (fun p -> Format.printf "  %a@." Crat.Design_space.pp_point p) pruned;
  Format.printf "@.";

  (* the full surface, normalised to MaxTLP (Fig. 2) *)
  let points =
    List.map
      (function
        | Crat.Figure.[ Int reg; Int tlp; Float (speedup, _) ] -> (reg, tlp, speedup)
        | _ -> failwith "fig2: unexpected row")
      (Crat.Experiments.fig2 engine cfg app).Crat.Figure.rows
  in
  let regs = List.sort_uniq compare (List.map (fun (reg, _, _) -> reg) points) in
  let tlps = List.sort_uniq compare (List.map (fun (_, tlp, _) -> tlp) points) in
  Format.printf "speedup vs MaxTLP (rows: registers; columns: TLP)@.";
  Format.printf "%6s" "reg";
  List.iter (fun t -> Format.printf " %6s" (Printf.sprintf "TLP%d" t)) tlps;
  Format.printf "@.";
  List.iter
    (fun reg ->
       Format.printf "%6d" reg;
       List.iter
         (fun tlp ->
            match List.find_opt (fun (r, t, _) -> r = reg && t = tlp) points with
            | Some (_, _, speedup) -> Format.printf " %6.2f" speedup
            | None -> Format.printf " %6s" "-")
         tlps;
       Format.printf "@.")
    regs;
  let best_reg, best_tlp, best =
    List.fold_left
      (fun ((_, _, s) as acc) ((_, _, s') as p) -> if s' > s then p else acc)
      (List.hd points) points
  in
  Format.printf "@.best point: reg=%d TLP=%d (%.2fx vs MaxTLP)@." best_reg best_tlp best
