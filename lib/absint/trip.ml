open Ptx

type loop =
  { back_edge : int * int
  ; header : int
  ; members : bool array
  ; exits : int list
  ; trips : int option
  }

let cap = 1 lsl 22

(* the single in-loop self-update [x := x op imm] of register x, if any *)
type induction =
  { ireg : Reg.t
  ; iop : Instr.binop
  ; ity : Types.scalar
  ; istep : int64
  ; iblk : int
  ; iidx : int
  }

let find_inductions (flow : Cfg.Flow.t) members =
  let def_counts : int Reg.Tbl.t = Reg.Tbl.create 16 in
  let candidates = ref [] in
  Array.iter
    (fun (b : Cfg.Flow.block) ->
       if members.(b.Cfg.Flow.bid) then
         for i = b.Cfg.Flow.first to b.Cfg.Flow.last do
           let ins = flow.Cfg.Flow.instrs.(i) in
           List.iter
             (fun r ->
                Reg.Tbl.replace def_counts r
                  (1 + Option.value ~default:0 (Reg.Tbl.find_opt def_counts r)))
             (Instr.defs ins);
           match ins with
           | Instr.Binop
               ( ((Instr.Add | Instr.Sub | Instr.Shl | Instr.Shr) as op)
               , ty
               , d
               , Instr.Oreg s
               , Instr.Oimm step )
             when Reg.equal d s && not (Types.is_float ty) ->
             candidates :=
               { ireg = d
               ; iop = op
               ; ity = ty
               ; istep = step
               ; iblk = b.Cfg.Flow.bid
               ; iidx = i
               }
               :: !candidates
           | _ -> ()
         done)
    flow.Cfg.Flow.blocks;
  ( List.filter
      (fun c -> Reg.Tbl.find_opt def_counts c.ireg = Some 1)
      !candidates
  , fun r -> Option.value ~default:0 (Reg.Tbl.find_opt def_counts r) )

(* the last definition of [p] in block [e] strictly before [at]; must be
   a setp for the test to be recognised *)
let reaching_setp (flow : Cfg.Flow.t) (e : Cfg.Flow.block) p ~at =
  let rec scan i =
    if i < e.Cfg.Flow.first then None
    else
      match flow.Cfg.Flow.instrs.(i) with
      | Instr.Setp (cmp, ty, d, a, b) when Reg.equal d p -> Some (i, cmp, ty, a, b)
      | ins when List.exists (Reg.equal p) (Instr.defs ins) -> None
      | _ -> scan (i - 1)
  in
  scan (at - 1)

let singleton_operand an ~at op =
  match Dom.Itv.singleton (Analysis.operand_at an at op).Dom.itv with
  | Some n -> Some (Int64.of_int n)
  | None -> None

let prove_trips an flow members header =
  let inductions, def_count = find_inductions flow members in
  let exits =
    Array.to_list flow.Cfg.Flow.blocks
    |> List.filter_map (fun (b : Cfg.Flow.block) ->
      if
        members.(b.Cfg.Flow.bid)
        && List.exists (fun s -> not members.(s)) b.Cfg.Flow.succs
      then Some b.Cfg.Flow.bid
      else None)
  in
  let proven =
    match exits with
    | [ e ] -> begin
      let eb = flow.Cfg.Flow.blocks.(e) in
      match flow.Cfg.Flow.instrs.(eb.Cfg.Flow.last) with
      | Instr.Bra_pred (p, sense, lbl) -> begin
        match reaching_setp flow eb p ~at:eb.Cfg.Flow.last with
        | None -> None
        | Some (setp_idx, cmp, sty, a, b) ->
          (* which side is the induction register? *)
          let pick =
            List.find_opt
              (fun ind ->
                 a = Instr.Oreg ind.ireg || b = Instr.Oreg ind.ireg)
              inductions
          in
          Option.bind pick (fun ind ->
            let other, x_on_left =
              if a = Instr.Oreg ind.ireg then (b, true) else (a, false)
            in
            (* the bound must be loop-invariant and pinned to a constant *)
            let invariant =
              match other with
              | Instr.Oreg r -> def_count r = 0
              | Instr.Oimm _ | Instr.Ospecial _ -> true
              | _ -> false
            in
            if not invariant then None
            else
              Option.bind (singleton_operand an ~at:setp_idx other)
                (fun bound ->
                   (* initial value: join over entry edges *)
                   let hb = flow.Cfg.Flow.blocks.(header) in
                   let x0v =
                     List.fold_left
                       (fun acc pr ->
                          if members.(pr) then acc
                          else
                            let v =
                              match
                                Reg.Map.find_opt ind.ireg
                                  (Analysis.out_state an pr)
                              with
                              | Some v -> v
                              | None -> Dom.top
                            in
                            match acc with
                            | None -> Some v
                            | Some a -> Some (Dom.join a v)
                       )
                       None hb.Cfg.Flow.preds
                   in
                   Option.bind
                     (match x0v with
                      | Some v -> Dom.Itv.singleton v.Dom.itv
                      | None -> None)
                     (fun x0 ->
                        (* head-test (test dominates increment) or
                           tail-test (increment dominates test)? *)
                        let dom = Cfg.Dominance.dominators flow in
                        let order =
                          if e = ind.iblk then
                            if ind.iidx < setp_idx then `Tail else `Unknown
                          else if Cfg.Dominance.dominates dom e ind.iblk then `Head
                          else if Cfg.Dominance.dominates dom ind.iblk e then `Tail
                          else `Unknown
                        in
                        if order = `Unknown then None
                        else begin
                          let taken_blk =
                            flow.Cfg.Flow.block_of_instr.(Cfg.Flow.target_index
                                                            flow lbl)
                          in
                          let exit_on = if members.(taken_blk) then not sense else sense in
                          let test x =
                            let xa, xb =
                              if x_on_left then (Gpusim.Value.I x, Gpusim.Value.I bound)
                              else (Gpusim.Value.I bound, Gpusim.Value.I x)
                            in
                            Gpusim.Value.compare_values cmp sty xa xb = exit_on
                          in
                          let step x =
                            Gpusim.Value.to_bits
                              (Gpusim.Value.binop ind.iop ind.ity
                                 (Gpusim.Value.I x) (Gpusim.Value.I ind.istep))
                          in
                          let x = ref (Int64.of_int x0) in
                          let t = ref 0 in
                          let result = ref None in
                          (match order with
                           | `Head ->
                             let continue = ref true in
                             while !continue do
                               if test !x then begin
                                 result := Some !t;
                                 continue := false
                               end
                               else if !t >= cap then continue := false
                               else begin
                                 x := step !x;
                                 incr t
                               end
                             done
                           | `Tail ->
                             let continue = ref true in
                             while !continue do
                               x := step !x;
                               incr t;
                               if test !x then begin
                                 result := Some !t;
                                 continue := false
                               end
                               else if !t >= cap then continue := false
                             done
                           | `Unknown -> ());
                          !result
                        end)))
      end
      | _ -> None
    end
    | _ -> None
  in
  (exits, proven)

let loops an =
  let flow = Analysis.flow an in
  Cfg.Loops.back_edges flow
  |> List.map (fun ((_, v) as be) ->
    let members = Cfg.Loops.natural_loop flow be in
    let exits, trips = prove_trips an flow members v in
    { back_edge = be; header = v; members; exits; trips })
