(** Per-phase lookup instrumentation (reproduces paper Fig. 3).

    When enabled, the walk and fastpath code attribute elapsed wall time to
    the paper's five principal components of a path lookup.  Disabled by
    default because timestamping costs more than some phases themselves. *)

type phase = Init | Permission | Scan_hash | Table_lookup | Finalize

let all = [ Init; Permission; Scan_hash; Table_lookup; Finalize ]

let name = function
  | Init -> "initialization"
  | Permission -> "permission check"
  | Scan_hash -> "path scanning & hashing"
  | Table_lookup -> "hash table lookup"
  | Finalize -> "finalization"

let index = function
  | Init -> 0
  | Permission -> 1
  | Scan_hash -> 2
  | Table_lookup -> 3
  | Finalize -> 4

let enabled = ref false

(* Native-int nanosecond accumulators: the fastpath stamps spans straight
   into this array, and int arithmetic keeps even the enabled case free of
   Int64 boxing on the recording side. *)
let acc = Array.make 5 0
let counts = Array.make 5 0

let reset () =
  Array.fill acc 0 5 0;
  Array.fill counts 0 5 0

let record phase ns =
  let i = index phase in
  acc.(i) <- acc.(i) + ns;
  counts.(i) <- counts.(i) + 1

(** {2 Stamping}

    A closure combinator wrapping each phase would capture its environment
    and allocate per call (two closures per slowpath component in the
    walk).  Every site instead takes a raw stamp and charges the span
    explicitly:
    {[
      let t0 = Phases.stamp () in
      ... phase body ...
      Phases.record_span Phases.Scan_hash t0
    ]}
    When instrumentation is disabled, [stamp] returns 0 without reading the
    clock and [record_span] is a single branch. *)

let[@inline] stamp () = if !enabled then Dcache_util.Clock.now_int_ns () else 0

let[@inline] record_span phase t0 =
  if !enabled then record phase (Dcache_util.Clock.now_int_ns () - t0)

let totals () = List.map (fun p -> (p, Int64.of_int acc.(index p))) all
