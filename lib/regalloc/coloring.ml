module RSet = Ptx.Reg.Set
module RMap = Ptx.Reg.Map
module ISet = Set.Make (Int)

type result =
  { assignment : int RMap.t
  ; spilled : Ptx.Reg.t list
  ; colors_used : int
  ; type_waste : int
  }

let color ?(type_strict = true) ?(member = fun _ -> true) ~graph ~cls ~k
    ~spill_cost () =
  (* the subproblem's nodes, numbered in register order: the smallest
     number is the smallest register, so each "first node" choice below
     is the one a walk over a register set makes *)
  let nodes =
    Array.of_list (List.filter member (Interference.nodes_of_class graph cls))
  in
  let n = Array.length nodes in
  let index = Ptx.Reg.Tbl.create (max n 1) in
  Array.iteri (fun i r -> Ptx.Reg.Tbl.replace index r i) nodes;
  (* edges to nodes outside the subproblem never constrain a colour *)
  let adj =
    Array.map
      (fun r ->
         Array.of_list
           (RSet.fold
              (fun m acc ->
                 match Ptx.Reg.Tbl.find_opt index m with
                 | Some j -> j :: acc
                 | None -> acc)
              (Interference.neighbors graph r)
              []))
      nodes
  in
  let cost = Array.map spill_cost nodes in
  (* degrees restricted to the remaining subgraph *)
  let deg = Array.map Array.length adj in
  let removed = Array.make n false in
  (* the remaining nodes of degree below [k]: degrees only fall, so a
     node joins this set at most once and leaves it only on removal *)
  let low = ref ISet.empty in
  Array.iteri (fun i d -> if d < k then low := ISet.add i !low) deg;
  let stack = ref [] in
  let remove i =
    removed.(i) <- true;
    low := ISet.remove i !low;
    Array.iter
      (fun j ->
         if not removed.(j) then begin
           deg.(j) <- deg.(j) - 1;
           if deg.(j) < k then low := ISet.add j !low
         end)
      adj.(i);
    stack := i :: !stack
  in
  (* simplify: the first low-degree node; otherwise a cheap potential
     spill, the first of least cost per remaining degree *)
  for _ = 1 to n do
    match ISet.min_elt_opt !low with
    | Some i -> remove i
    | None ->
      let best = ref (-1) and best_metric = ref 0. in
      for i = 0 to n - 1 do
        if (not removed.(i)) && cost.(i) <> infinity then begin
          let metric = cost.(i) /. float_of_int (max 1 deg.(i)) in
          if !best < 0 || not (!best_metric <= metric) then begin
            best := i;
            best_metric := metric
          end
        end
      done;
      if !best < 0 then
        failwith
          (Printf.sprintf
             "Coloring: cannot colour class with k=%d; all remaining nodes \
              unspillable"
             k);
      remove !best
  done;
  (* select, optimistically *)
  let assignment = ref RMap.empty in
  let spilled = ref [] in
  let color_of = Array.make n (-1) in
  (* the type each colour was last given to *)
  let color_ty = Array.make (max k 0) None in
  (* [taken.(c) = i]: a neighbour of node [i] holds colour [c] *)
  let taken = Array.make (max k 0) (-1) in
  let colors_used = ref 0 in
  let type_waste = ref 0 in
  List.iter
    (fun i ->
       Array.iter
         (fun j ->
            let c = color_of.(j) in
            if c >= 0 then taken.(c) <- i)
         adj.(i);
       let r = nodes.(i) in
       let ty = Ptx.Reg.ty r in
       let free c = taken.(c) <> i in
       let binding_matches c =
         match color_ty.(c) with
         | Some t -> Ptx.Types.equal_scalar t ty
         | None -> false
       in
       let unbound c = Option.is_none color_ty.(c) in
       let find pred =
         let rec loop c = if c >= k then None else if free c && pred c then Some c else loop (c + 1) in
         loop 0
       in
       let choice =
         if type_strict then
           (* prefer a colour of our own type, then a fresh one; reuse a
              differently-typed colour only as a last resort (the paper's
              "register waste" shows up as extra colours used) *)
           match find binding_matches with
           | Some c -> Some c
           | None ->
             (match find unbound with
              | Some c -> Some c
              | None ->
                (match find (fun _ -> true) with
                 | Some c ->
                   incr type_waste;
                   Some c
                 | None -> None))
         else find (fun _ -> true)
       in
       match choice with
       | Some c ->
         color_of.(i) <- c;
         assignment := RMap.add r c !assignment;
         color_ty.(c) <- Some ty;
         colors_used := max !colors_used (c + 1)
       | None ->
         if cost.(i) = infinity then
           failwith "Coloring: unspillable node could not be coloured"
         else spilled := r :: !spilled)
    !stack;
  { assignment = !assignment
  ; spilled = List.rev !spilled
  ; colors_used = !colors_used
  ; type_waste = !type_waste
  }
