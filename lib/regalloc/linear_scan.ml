module RMap = Ptx.Reg.Map

type interval =
  { reg : Ptx.Reg.t
  ; start : int
  ; stop : int
  }

let color ?(member = fun _ -> true) ~ranges ~cls ~k ~spill_cost () =
  let intervals =
    List.filter_map
      (fun (r, (lo, hi)) ->
         if Ptx.Types.reg_class (Ptx.Reg.ty r) = cls && member r then
           Some { reg = r; start = lo; stop = hi }
         else None)
      ranges
    |> List.sort (fun a b ->
      let c = Int.compare a.start b.start in
      if c <> 0 then c else Int.compare a.stop b.stop)
  in
  let free = ref (List.init k (fun i -> i)) in
  let active = ref [] in
  (* active: (interval, colour), sorted by increasing stop *)
  let assignment = ref RMap.empty in
  let spilled = ref [] in
  let colors_used = ref 0 in
  let expire point =
    let expired, still = List.partition (fun (iv, _) -> iv.stop < point) !active in
    List.iter (fun (_, c) -> free := c :: !free) expired;
    active := still
  in
  let insert_active iv c =
    let rec ins = function
      | [] -> [ (iv, c) ]
      | ((iv', _) as hd) :: tl when iv'.stop <= iv.stop -> hd :: ins tl
      | rest -> (iv, c) :: rest
    in
    active := ins !active
  in
  List.iter
    (fun iv ->
       expire iv.start;
       match !free with
       | c :: rest ->
         free := rest;
         assignment := RMap.add iv.reg c !assignment;
         colors_used := max !colors_used (c + 1);
         insert_active iv c
       | [] ->
         (* no free register: evict the furthest-ending spillable active
            interval if that helps (or if the current interval must not
            spill); otherwise spill the current interval *)
         let furthest_active =
           List.rev !active
           |> List.find_opt (fun (a, _) -> spill_cost a.reg < infinity)
         in
         let steal (a, c) =
           spilled := a.reg :: !spilled;
           assignment := RMap.remove a.reg !assignment;
           active := List.filter (fun (x, _) -> not (Ptx.Reg.equal x.reg a.reg)) !active;
           assignment := RMap.add iv.reg c !assignment;
           insert_active iv c
         in
         (match furthest_active with
          | Some ((a, _) as ac) when a.stop > iv.stop || spill_cost iv.reg = infinity ->
            steal ac
          | Some _ | None ->
            if spill_cost iv.reg = infinity then
              failwith "Linear_scan: unspillable interval with no register"
            else spilled := iv.reg :: !spilled))
    intervals;
  { Coloring.assignment = !assignment
  ; spilled = List.rev !spilled
  ; colors_used = !colors_used
  ; type_waste = 0
  }
