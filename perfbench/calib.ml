(* Host-speed normalization.

   The benchmark shares its machine with other tenants, whose load moves
   the speed of this process by tens of percent within seconds: the
   kernel's pointer-chasing work slows with cache and memory contention,
   while pure ALU work does not.  Before every timed interval the
   benchmark runs two fixed probes whose code is independent of the code
   under test — a dependent walk over a random cyclic permutation of a
   256 KiB array, and lookups in a 65536-entry Hashtbl — each the fastest
   of three tries, and multiplies the wall time it then measures by
   [reference_ns] over the geometric mean of the two.  Either probe alone
   tracks the kernel's speed well under some kinds of neighbour load and
   poorly under others; their mean was the steadiest on the build host.
   Times are thus reported on a host whose probes average [reference_ns]
   (about the build host's quiet speed), and a change to the kernel moves
   them in full. *)

let reference_ns = 3_000_000.

let next =
  let n = 1 lsl 15 in
  let perm = Array.init n (fun i -> i) in
  let g = Dcache_util.Prng.create 7 in
  for i = n - 1 downto 1 do
    let j = Dcache_util.Prng.int g i in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let next = Array.make n 0 in
  for i = 0 to n - 1 do
    next.(perm.(i)) <- perm.((i + 1) mod n)
  done;
  next

let table =
  let t = Hashtbl.create 65536 in
  for i = 0 to 65535 do
    Hashtbl.replace t (i * 7919) (string_of_int i)
  done;
  t

let walk () =
  let x = ref 0 in
  for _ = 1 to 500_000 do
    x := next.(!x)
  done;
  !x

let lookups () =
  let acc = ref 0 in
  for r = 0 to 15 do
    for i = 0 to 4095 do
      acc := !acc + String.length (Hashtbl.find table ((((i * 2654435761) + r) land 65535) * 7919))
    done
  done;
  !acc

let fastest_of_3 f =
  let once () =
    let t0 = Dcache_util.Clock.monotonic_ns () in
    ignore (Sys.opaque_identity (f ()));
    Dcache_util.Clock.monotonic_ns () - t0
  in
  let a = once () in
  let b = once () in
  min a (min b (once ()))

let probe_ns () = sqrt (float_of_int (fastest_of_3 walk) *. float_of_int (fastest_of_3 lookups))

(* Factor to apply to the wall time of the interval that follows. *)
let factor () = reference_ns /. probe_ns ()
