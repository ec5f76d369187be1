(* Committed fingerprints: digests of every Stats.t (or allocation plan)
   a workload pass produces, at the inputs they name. A mismatch means a
   change altered a simulated or compiled answer, which a performance
   change must never do.

   The full-suite values come from earlier reports and are re-derived by
   [perf.exe --canary]; the per-pass values were recorded by this
   harness, whose pass code the canary shares. *)

(* The fig13 family (fig13 Fermi/sensitive, fig17 Kepler/sensitive,
   fig19 Fermi/insensitive) at the default inputs (seed 42), digested
   as BENCH_PR5.json did. *)
let full_sweep = "8516dbf73179c3ab265b632e9921fe4f"

(* Engine counters of that sweep on one fresh engine at jobs 1:
   sim runs, sim hits, trace records, trace replays, allocations,
   allocation hits (BENCH_PR5.json). *)
let full_sweep_counts = (281, 619, 43, 238, 71, 129)

(* Geomean CRAT speed-up over OptTLP on fig13 (BENCH_PR6.json, PTX
   backend), printed to four places. *)
let full_sweep_crat_geomean = "1.4129"

(* Every app's default point (Fermi, default registers, occupancy TLP)
   served by the daemon, as sorted (abbr, Stats.t) pairs
   (BENCH_PR10.json). *)
let full_default_points = "c83b4e34ca384082dc1fa3e41302308b"

(* One sweep pass at seed 42. *)
let sweep_pass = "887d269ee18681e56cf0715ea3f3c8ac"

(* Every compile plan, per app (on its platform, app i of the suite on
   platform i mod 4): the digest with shared spilling on, then off. The
   static compile path reads only the inputs' sizes, never their data,
   so these hold at every seed. *)
let compile_plans =
  [ ("BLK", ("68382fe2db5d41469185ff4663f6c592", "4518730e1690a83615f175311009407e"))
  ; ("CFD", ("e0f02733911e94e2fc09eb55531f1888", "45e188649313bb3c2a302713ef8361d6"))
  ; ("DTC", ("80634ce350eb10d48a4d6d75f9ec2a72", "537798e1d883b364b00c7d46343c6db0"))
  ; ("ESP", ("9be035512c247163cd2b0ad381165fd9", "b91d879dc381e32c2b7cf1f4d117ea50"))
  ; ("FDTD", ("d13d2e90b38833cfcc8adf4a3a1a2fdf", "619d30095231fe1a3e4bfe65eb6af40f"))
  ; ("HST", ("c386c746cd1d2622c5f3011fde3f1a86", "53362bccde49b7904ed09cc7272bcc79"))
  ; ("KMN", ("83b2879ac264daefa6511016a8dcabc0", "1416502226b895006e337d97b18d5cbf"))
  ; ("LBM", ("c4b92d2cd544d738f0a14a2357577fcd", "181d87a24709b9eedfc1ab084aa0a0ff"))
  ; ("SPMV", ("15401a69e80a6e558b04bcf8cce07f94", "31ca04cf5a4cb37fd1c0b916af487d67"))
  ; ("STE", ("e3daeec45c82d13ce3aa1c8901a79b50", "0a98792b057542987bdd45cc4434c5da"))
  ; ("STM", ("987ea321f094160bf81c11fad4c3a48c", "fadc79aef1c66dac4de0e998ec2f9edc"))
  ; ("BAK", ("19d2df243146014256500b1a79f66232", "a4ad1041055dc23af294bc2d78a61bc1"))
  ; ("BFS", ("0bfd09a807d33a50943962b9cc4031c2", "6601ad776de3c738ac014974ab0654a6"))
  ; ("B+T", ("bb77b413f9a3bbc7e12bd3c8f45bc0d1", "5bc98b77de471eeaa6ef16d108ddfbfb"))
  ; ("GAU", ("6734d9c8e1af14dd2fd2dad5161c5958", "b6e362f5c3099c6faf4676514ab95034"))
  ; ("LUD", ("6365d62dee1e139f48e6822037c3fa1e", "dfd71d07ce0dee19db281b50816c4347"))
  ; ("MUM", ("e6d4fbbb3b1c8aa82bc3d92a201ea13d", "c9915c0e222a5b48e3ea4114765e5d73"))
  ; ("NEED", ("e8de4dd4cef7afc9e6017293b1ca71ff", "1f99990c9c90cfe7b2196a6f145f2994"))
  ; ("PTF", ("20ae7b24af224cb7f0fdab7d91c4d763", "089418889e43c1d9e1e6cae5c520d05d"))
  ; ("PATH", ("e97e433feacc22d6d7f6a48e6a548f09", "b9cfbd4ad65f31760b67bed437fd2fc9"))
  ; ("SGM", ("d5841d4ec3d5f979dd1c9b1cbc61534d", "1c6eb185bc66b2a1c6ea670100163deb"))
  ; ("SRAD", ("fb2e978d77bf4fbe35e2e29f9ffcf514", "948a7a5512d35f17866356def4a91198"))
  ]

(* The serve universe's answers, as sorted (point, Stats.t) pairs; the
   protocol serves default inputs only, so this holds at every seed. *)
let serve_universe = "675154270dd8585e2a66886752640ea2"
