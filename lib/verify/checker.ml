let check_kernel ?(block_size = 128) (k : Ptx.Kernel.t) =
  let tds = Typecheck.check k in
  let more =
    match Cfg.Flow.of_kernel k with
    | exception Invalid_argument _ -> []
    | flow ->
      let an = Absint.Analysis.run ~block_size flow in
      Uninit.check flow @ Barrier.check an @ Races.check an
  in
  Diagnostic.sort (tds @ more)

let check_allocation (a : Regalloc.Allocator.t) =
  Diagnostic.sort
    (check_kernel ~block_size:a.Regalloc.Allocator.block_size
       a.Regalloc.Allocator.kernel
     @ Audit.check a)
