(* Lane addresses are kept as bit patterns in a float array (unboxed
   stores) and reduced on demand into an int scratch: line indices for
   coalescing, word indices for bank conflicts. *)

type t =
  { line_shift : int  (* log2 of the line size *)
  ; banks : int
  ; addrs : float array
  ; mutable n : int
  ; buf : int array  (* distinct line or word indices *)
  ; bank_counts : int array  (* per signed-mod bank class *)
  }

let log2 n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Coalescer.create: line size is not a power of two";
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0

let create ~lanes ~line ~banks =
  { line_shift = log2 line
  ; banks
  ; addrs = Array.make lanes 0.0
  ; n = 0
  ; buf = Array.make lanes 0
  ; bank_counts = Array.make ((2 * banks) + 1) 0
  }

let load t src off n =
  Array.blit src off t.addrs 0 n;
  t.n <- n

let addr t i = Int64.bits_of_float (Array.unsafe_get t.addrs i)

(* The distinct values of [addr / 2^shift] over the lanes, rounded
   toward zero like [Int64.div], ascending, in [buf] (insertion sort,
   then an in-place dedupe); returns how many. A negative address is
   biased by [2^shift - 1] first, so the arithmetic shift truncates it
   toward zero instead of down. *)
let distinct t shift =
  let n = t.n in
  let buf = t.buf in
  let low = Int64.of_int ((1 lsl shift) - 1) in
  for i = 0 to n - 1 do
    let a = addr t i in
    let a = Int64.add a (Int64.logand (Int64.shift_right a 63) low) in
    buf.(i) <- Int64.to_int (Int64.shift_right a shift)
  done;
  for i = 1 to n - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) > x do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  let m = ref 0 in
  for i = 0 to n - 1 do
    if !m = 0 || buf.(i) <> buf.(!m - 1) then begin
      buf.(!m) <- buf.(i);
      incr m
    end
  done;
  !m

let segments t = distinct t t.line_shift
let segment t i = t.buf.(i)

let bank_degree t =
  let m = distinct t 2 (* 4-byte words *) in
  let banks = t.banks in
  Array.fill t.bank_counts 0 (Array.length t.bank_counts) 0;
  let degree = ref 1 in
  for j = 0 to m - 1 do
    let k = (t.buf.(j) mod banks) + banks in
    let c = t.bank_counts.(k) + 1 in
    t.bank_counts.(k) <- c;
    if c > !degree then degree := c
  done;
  !degree
