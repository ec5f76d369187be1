module RSet = Ptx.Reg.Set
module RMap = Ptx.Reg.Map

type result =
  { assignment : int RMap.t
  ; spilled : Ptx.Reg.t list
  ; colors_used : int
  ; type_waste : int
  }

type problem =
  { nodes : Ptx.Reg.t array
  ; adj : int array array
  ; cost : float array
  }

let problem ?(member = fun _ -> true) ~graph ~cls ~spill_cost () =
  (* the subproblem's nodes, numbered in register order: the smallest
     number is the smallest register, so each "first node" choice below
     is the one a walk over a register set makes. [local.(v - lo)] is
     graph node [v]'s number here, or -1 outside the subproblem. *)
  let lo, hi = Interference.class_nodes graph cls in
  let local = Array.make (hi - lo) (-1) in
  let n = ref 0 in
  for v = lo to hi - 1 do
    if member (Interference.reg graph v) then begin
      local.(v - lo) <- !n;
      incr n
    end
  done;
  let n = !n in
  let global = Array.make n 0 in
  Array.iteri (fun i l -> if l >= 0 then global.(l) <- lo + i) local;
  let nodes = Array.map (Interference.reg graph) global in
  (* edges to nodes outside the subproblem never constrain a colour *)
  let adj =
    Array.map
      (fun v ->
         let a = Interference.adjacent graph v in
         (* the whole class: a local number is an offset *)
         if n = hi - lo then Array.map (fun u -> u - lo) a
         else begin
           let inside = ref 0 in
           Array.iter (fun u -> if local.(u - lo) >= 0 then incr inside) a;
           let b = Array.make !inside 0 in
           let j = ref 0 in
           Array.iter
             (fun u ->
                let l = local.(u - lo) in
                if l >= 0 then begin
                  b.(!j) <- l;
                  incr j
                end)
             a;
           b
         end)
      global
  in
  { nodes; adj; cost = Array.map spill_cost nodes }

let solve ?(type_strict = true) { nodes; adj; cost } ~k =
  let n = Array.length nodes in
  (* degrees restricted to the remaining subgraph *)
  let deg = Array.map Array.length adj in
  let removed = Array.make n false in
  (* the remaining nodes of degree below [k], a binary min-heap: degrees
     only fall, so a node joins when its degree reaches [k - 1] (or
     starts below [k]) and leaves only as the minimum, because a
     potential spill is only chosen while the heap is empty *)
  let low = Array.make (max n 1) 0 in
  let size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    while !i > 0 && low.((!i - 1) / 2) > v do
      low.(!i) <- low.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    low.(!i) <- v
  in
  let pop () =
    let top = low.(0) in
    decr size;
    let v = low.(!size) and i = ref 0 and fin = ref false in
    while not !fin do
      let c = (2 * !i) + 1 in
      let c = if c + 1 < !size && low.(c + 1) < low.(c) then c + 1 else c in
      if c < !size && low.(c) < v then begin
        low.(!i) <- low.(c);
        i := c
      end
      else fin := true
    done;
    low.(!i) <- v;
    top
  in
  Array.iteri (fun i d -> if d < k then push i) deg;
  let stack = ref [] in
  let remove i =
    removed.(i) <- true;
    Array.iter
      (fun j ->
         if not removed.(j) then begin
           deg.(j) <- deg.(j) - 1;
           if deg.(j) = k - 1 then push j
         end)
      adj.(i);
    stack := i :: !stack
  in
  (* simplify: the first low-degree node; otherwise a cheap potential
     spill, the first of least cost per remaining degree *)
  for _ = 1 to n do
    if !size > 0 then remove (pop ())
    else begin
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
    end
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

let color ?type_strict ?member ~graph ~cls ~k ~spill_cost () =
  solve ?type_strict (problem ?member ~graph ~cls ~spill_cost ()) ~k
