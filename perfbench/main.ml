(* The repo benchmark: one seeded closed-loop workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
   prints the per-layer split from a run that alternates traced and
   untraced passes.  Both check every op's outcome against a baseline
   kernel and print, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when
   any outcome or self-check fails. *)

module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module Config = Dcache_vfs.Config
module Dcache = Dcache_vfs.Dcache
module Clock = Dcache_util.Clock
module Signature = Dcache_sig.Signature
module Fastpath = Dcache_core.Fastpath
module Lsm = Dcache_cred.Lsm
module Tracer = Stack.Tracer

let setups = 5

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Workload.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " timed seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end

let now = Clock.monotonic_ns
let secs ns = float_of_int ns /. 1e9
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let pct (sorted : int array) p =
  let n = Array.length sorted in
  if n = 0 then 0. else float_of_int sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* Build the tree and run one warm pass; returns the executor and the
   host-normalized set-up time in seconds.  Stable inodes are noted after
   the clock stops. *)
let setup ?lsms ?tracer ?samples (w : Workload.t) config =
  let f = Calib.factor () in
  let t0 = now () in
  let env = Stack.create ?lsms ?tracer w config in
  let stable = w.Workload.build env.Stack.proc in
  let ex = Exec.create ?samples env w.Workload.pass in
  ignore (Exec.pass ex);
  let dt = now () - t0 in
  Exec.note_stable ex stable;
  (ex, f *. secs dt)

let failures = ref []
let fail msg = failures := msg :: !failures

(* The oracle: the same op list on a Config.baseline kernel.  Two passes
   must agree, or the list does not restore the namespace it starts from. *)
let oracle w =
  let ex, _ = setup w Config.baseline in
  let first = Exec.canonical ex in
  ignore (Exec.pass ex);
  if Exec.mismatches first (Exec.canonical ex) <> 0 then
    fail "oracle: a second pass differs from the first";
  if ex.Exec.exns > 0 then fail "oracle: an op raised";
  first

let self_checks (w : Workload.t) expected =
  if (Workload.make !workload ~seed:!seed).Workload.pass <> w.Workload.pass then
    fail "self-check: the same seed gave a different op list";
  if (Workload.make !workload ~seed:(!seed + 1)).Workload.pass = w.Workload.pass then
    fail "self-check: another seed gave the same op list";
  let planted = { expected with Exec.err = Array.copy expected.Exec.err } in
  let k = !seed mod Array.length planted.Exec.err in
  planted.Exec.err.(k) <- planted.Exec.err.(k) + 1;
  if Exec.mismatches expected planted <> 1 then
    fail "self-check: the oracle missed a planted wrong outcome"

type tally = { mutable attempted : int; mutable mismatched : int }

let tally = { attempted = 0; mismatched = 0 }

let check ex expected =
  tally.attempted <- tally.attempted + ex.Exec.slots;
  tally.mismatched <- tally.mismatched + Exec.mismatches expected (Exec.canonical ex)

(* Run passes until [--seconds] of wall time (or a [parts]-th of it)
   have gone, each after a calibration probe; [each] gets the pass's
   number and a thunk running it, which returns the normalization factor
   and the throughput (ops over the summed op latencies). *)
let timed_loop ?(parts = 1) ex expected each =
  let t0 = now () in
  let k = ref 0 in
  let budget = !seconds * 1_000_000_000 / parts in
  while now () - t0 < budget do
    each !k (fun () ->
        let f = Calib.factor () in
        let u = Exec.pass ~scale:f ex in
        (f, float_of_int ex.Exec.slots /. secs u));
    check ex expected;
    incr k
  done

let class_slots (w : Workload.t) pred =
  Array.fold_left (fun n op -> if pred op then n + Workload.slots op else n) 0 w.Workload.pass

let metrics = ref []
let metric name unit v = metrics := (name, unit, v) :: !metrics

(* Median and p99 of a latency buffer, printed with the sample count. *)
let latency name (buf : Exec.Buf.t) =
  let s = Exec.Buf.sorted buf in
  let p50 = pct s 0.5 and p99 = pct s 0.99 in
  Printf.printf "  %-8s samples %9d  p50 %8.0f ns  p99 %8.0f ns\n" name (Array.length s) p50 p99;
  (p50, p99)

(* Words reachable from the kernel under test and its file system, taken
   right after set-up so the figure does not depend on how many passes
   the run had time for. *)
let heap_mb ex =
  float_of_int (Obj.reachable_words (Obj.repr ex.Exec.env) * (Sys.word_size / 8)) /. 1048576.

(* Each set-up's kernel is timed for an equal share of the run, so no
   single kernel's heap layout sets the result. *)
let end_to_end (w : Workload.t) expected =
  let times = ref [] and heaps = ref [] and rates = ref [] and factors = ref [] in
  let samples = Exec.samples () in
  for _ = 1 to setups do
    let ex, s = setup ~samples w Config.optimized in
    times := s :: !times;
    heaps := heap_mb ex :: !heaps;
    Gc.compact ();
    ex.Exec.record <- true;
    timed_loop ~parts:setups ex expected (fun _ pass ->
        let f, rate = pass () in
        factors := f :: !factors;
        rates := rate :: !rates)
  done;
  Printf.printf "%s: %d passes after %d set-ups; median host factor %.3f (reported time = wall time x factor)\n"
    w.Workload.name (List.length !rates) setups (median !factors);
  Array.iteri
    (fun k n ->
      if n > 0 then
        Printf.printf "  %-14s n %9d  mean %8.0f ns\n" Exec.op_kinds.(k) n (ratio samples.Exec.kind_ns.(k) n))
    samples.Exec.kind_n;
  metric "ops_per_s" "1/s" (median !rates);
  let p50, p99 = latency "lookup" samples.Exec.lookup in
  metric "lookup_p50_ns" "ns" p50;
  metric "lookup_p99_ns" "ns" p99;
  let p50, p99 = latency "mutate" samples.Exec.mutate in
  metric "mutate_p50_ns" "ns" p50;
  metric "mutate_p99_ns" "ns" p99;
  metric "readdir_p50_ns" "ns" (fst (latency "readdir" samples.Exec.listing));
  metric "setup_s" "s" (median !times);
  metric "heap_mb" "MB" (median !heaps)

(* ---------------------------------------------------------------------- *)
(* Per-layer split *)

let counter snap name = try List.assoc name snap with Not_found -> 0

let write_spans (tr : Tracer.t) =
  let dir = ".perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = Printf.sprintf "%s/spans-%s-%d.tsv" dir !workload !seed in
  let oc = open_out file in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\top\n";
  let name k =
    if k < Array.length Stack.fs_kinds then Stack.fs_kinds.(k)
    else Exec.op_kinds.(k - Array.length Stack.fs_kinds)
  in
  for id = 0 to tr.Tracer.n - 1 do
    let o = id * Tracer.stride in
    let s = tr.Tracer.spans in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" id (name s.(o)) s.(o + 1) s.(o + 2) s.(o + 3) s.(o + 4)
  done;
  close_out oc;
  Printf.printf "spans of the last traced pass: %s (%d recorded, %d dropped)\n" file tr.Tracer.n
    tr.Tracer.dropped

(* Median normalized ns per item of five timed passes of [f] over [items]. *)
let timed_per_item items f =
  let n = Array.length items in
  let reps = ref [] in
  for _ = 1 to 5 do
    let c = Calib.factor () in
    let t0 = now () in
    Array.iter f items;
    reps := (c *. float_of_int (now () - t0) /. float_of_int (max 1 n)) :: !reps
  done;
  median !reps

let per_layer (w : Workload.t) expected =
  let tr = Tracer.create ~capacity:(1 lsl 18) in
  let hook, lsm_calls =
    Lsm.counting { Lsm.name = "perfbench-noop"; inode_permission = (fun _ _ _ -> true) }
  in
  let ex, _ = setup ~lsms:[ hook ] ~tracer:tr w Config.optimized in
  let env = ex.Exec.env in
  let k = env.Stack.kernel in
  let dc = Kernel.dcache k in
  let pcc () =
    let p = Dcache_core.Pcc.of_cred_exn env.Stack.proc.Proc.cred (Kernel.init_ns k) in
    (Dcache_core.Pcc.hits p, Dcache_core.Pcc.misses p)
  in
  let stripes () = match Dcache.stripes dc with Some l -> Dcache_util.Locktab.totals l | None -> (0, 0) in
  let pc f = match env.Stack.pagecache with Some c -> f c | None -> 0 in
  let dev f = match env.Stack.device with Some d -> f d | None -> 0 in
  Gc.compact ();
  let snap0 = Kernel.stats_snapshot k in
  let pcc_h0, pcc_m0 = pcc () in
  let rw_r0, rw_w0 = Dcache_util.Rwlock.acquisition_counts () in
  let st_a0, st_c0 = stripes () in
  let fs0 = Array.copy tr.Tracer.counts in
  let lsm0 = lsm_calls () in
  let pc_h0 = pc Dcache_storage.Pagecache.hits and pc_m0 = pc Dcache_storage.Pagecache.misses in
  let br0 = dev Dcache_storage.Blockdev.reads and bw0 = dev Dcache_storage.Blockdev.writes in
  let v0 = Stack.virt_ns env in
  let traced_rates = ref [] and plain_rates = ref [] in
  let passes = ref 0 and traced_slots = ref 0 in
  let minor_words = ref 0. and minor_gcs = ref 0 and major_gcs = ref 0 in
  timed_loop ex expected (fun k pass ->
      let traced = k mod 2 = 1 in
      tr.Tracer.on <- traced;
      ex.Exec.record <- not traced;
      let g0 = Gc.quick_stat () in
      let _, rate = pass () in
      let g1 = Gc.quick_stat () in
      tr.Tracer.on <- false;
      minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      minor_gcs := !minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs := !major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
      if traced then begin
        traced_rates := rate :: !traced_rates;
        traced_slots := !traced_slots + ex.Exec.slots
      end
      else plain_rates := rate :: !plain_rates;
      incr passes);
  let snap = Kernel.stats_snapshot k in
  let d name = counter snap name - counter snap0 name in
  let ops = !passes * ex.Exec.slots in
  let lookups = !passes * class_slots w (fun op -> Workload.cls op = Workload.Lookup) in
  let creates =
    !passes * class_slots w (function Workload.Create _ | Workload.Mkdir _ -> true | _ -> false)
  in
  let per_op x = ratio x ops in
  let m = metric in
  (* syscalls *)
  m "syscalls.self_ns_per_op" "ns" (ratio ex.Exec.sys_self_ns !traced_slots);
  m "syscalls.batch_ns_per_op" "ns" (ratio ex.Exec.batch_ns ex.Exec.batch_ops);
  m "syscalls.readdir_cache_ratio" "ratio" (ratio (d "readdir_from_cache") ex.Exec.listings);
  (* core *)
  let paths =
    Array.of_list
      (List.filter_map
         (function
           | Workload.Stat p | Workload.Lstat p | Workload.Access p when p.[0] = '/' -> Some p
           | _ -> None)
         (Array.to_list w.Workload.pass))
  in
  let fp = Kernel.fastpath k in
  let ctx = Proc.walk_ctx env.Stack.proc in
  let within _ _ = Ok () in
  m "core.lookup_ns" "ns" (timed_per_item paths (fun p -> ignore (Fastpath.lookup_into fp ctx p ~within)));
  let hits = d "fastpath_hit" + d "fastpath_negative_hit" and fallbacks = d "fastpath_fallback" in
  m "core.fastpath_hit_ratio" "ratio" (ratio hits (hits + fallbacks));
  m "core.fallback_per_lookup" "count" (ratio fallbacks lookups);
  m "core.prefix_resume_ratio" "ratio" (ratio (d "fastpath_prefix_resume") fallbacks);
  m "core.lockless_retry_per_lookup" "count" (ratio (d "fastpath_lockless_retry") lookups);
  let pcc_h, pcc_m = pcc () in
  m "core.pcc_hit_ratio" "ratio" (ratio (pcc_h - pcc_h0) (pcc_h - pcc_h0 + pcc_m - pcc_m0));
  (match Dcache_core.Dlht.of_namespace_opt (Kernel.init_ns k) with
  | Some t ->
    let o = Dcache_core.Dlht.occupancy t in
    m "core.dlht_entries" "count" (float_of_int o.Dcache_core.Dlht.occ_entries);
    m "core.dlht_longest_chain" "count" (float_of_int o.Dcache_core.Dlht.occ_longest)
  | None ->
    m "core.dlht_entries" "count" 0.;
    m "core.dlht_longest_chain" "count" 0.);
  m "core.batch_splits_per_submit" "count" (ratio (d "fastpath_batch_split") (d "batch_submit"));
  (* sig *)
  let key = Fastpath.key fp and ms = Signature.mstate () and buf = Signature.buf () in
  m "sig.hash_ns_per_path" "ns"
    (timed_per_item paths (fun p ->
         Signature.mstate_reset ms;
         ignore (Signature.hash_path_into key ms ~max_name:Dcache_vfs.Path.max_name p ~pos:0);
         Signature.finalize_into key ms buf));
  (* vfs *)
  m "vfs.walk_components_per_lookup" "count" (ratio (d "walk_components") lookups);
  m "vfs.dcache_hit_ratio" "ratio" (ratio (d "dcache_hit") (d "dcache_hit" + d "dcache_miss"));
  m "vfs.evicted_per_op" "count" (per_op (d "dcache_evicted"));
  (* negative dentries answer both ENOENT and the deep ENOTDIR probes *)
  let negative e = List.mem e Dcache_types.Errno.[ ENOENT; ENOTDIR ] in
  let absent = ref 0 in
  Array.iteri
    (fun i op ->
      let e = expected.Exec.err.(ex.Exec.base.(i)) in
      if Workload.cls op = Workload.Lookup && e > 0 && negative Exec.errnos.(e - 1) then incr absent)
    w.Workload.pass;
  m "vfs.negative_hit_ratio" "ratio"
    (ratio (d "fastpath_negative_hit" + d "fastpath_prefix_negfail") (!passes * !absent));
  m "vfs.dentries" "count" (float_of_int (Dcache.dentry_count dc));
  m "vfs.neg_resident" "count" (float_of_int (Array.fold_left ( + ) 0 (Dcache.neg_occupancy dc)));
  m "vfs.neg_evicted_per_op" "count" (per_op (d "neg_evicted"));
  m "vfs.create_shortcut_ratio" "ratio" (ratio (d "create_neg_shortcut") creates);
  (* cred *)
  m "cred.lsm_calls_per_lookup" "count" (ratio (lsm_calls () - lsm0) lookups);
  (* fs *)
  let fsd kind = tr.Tracer.counts.(kind) - fs0.(kind) in
  let fs_all = Array.fold_left ( + ) 0 (Array.mapi (fun i _ -> fsd i) fs0) in
  m "fs.calls_per_op" "count" (per_op fs_all);
  m "fs.lookup_per_op" "count" (per_op (fsd Stack.k_lookup));
  m "fs.getattr_per_op" "count" (per_op (fsd Stack.k_getattr));
  m "fs.readdir_per_op" "count" (per_op (fsd Stack.k_readdir));
  m "fs.mutate_per_op" "count" (per_op (fsd Stack.k_mutate));
  m "fs.self_ns_per_op" "ns" (ratio ex.Exec.fs_span_ns !traced_slots);
  m "fs.virt_ns_per_op" "ns" (per_op (Stack.virt_ns env - v0));
  (* storage *)
  let pc_h = pc Dcache_storage.Pagecache.hits - pc_h0 and pc_m = pc Dcache_storage.Pagecache.misses - pc_m0 in
  m "storage.pagecache_hit_ratio" "ratio" (ratio pc_h (pc_h + pc_m));
  m "storage.block_reads_per_op" "count" (per_op (dev Dcache_storage.Blockdev.reads - br0));
  m "storage.block_writes_per_op" "count" (per_op (dev Dcache_storage.Blockdev.writes - bw0));
  (* util *)
  let rw_r, rw_w = Dcache_util.Rwlock.acquisition_counts () in
  m "util.rwlock_read_per_op" "count" (per_op (rw_r - rw_r0));
  m "util.rwlock_write_per_op" "count" (per_op (rw_w - rw_w0));
  let st_a, st_c = stripes () in
  m "util.stripe_acquired_per_op" "count" (per_op (st_a - st_a0));
  m "util.stripe_contended_per_op" "count" (per_op (st_c - st_c0));
  (* gc *)
  m "gc.minor_words_per_op" "words" (!minor_words /. float_of_int (max 1 ops));
  m "gc.minor_collections_per_kop" "count" (1000. *. ratio !minor_gcs ops);
  m "gc.major_collections" "count" (float_of_int !major_gcs);
  (* tracing cost and correctness *)
  m "trace.overhead_pct" "%" (100. *. ((median !plain_rates /. median !traced_rates) -. 1.));
  m "fail_frac" "ratio" (ratio tally.mismatched tally.attempted);
  Printf.printf "%s: %d passes (%d traced)\n" w.Workload.name !passes (List.length !traced_rates);
  List.iter (fun (n, v) -> if v <> 0 then Printf.printf "  counter %-32s %d\n" n v)
    (List.map (fun (n, _) -> (n, d n)) snap);
  write_spans tr

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let () =
  let w = Workload.make !workload ~seed:!seed in
  let expected = oracle w in
  self_checks w expected;
  if !trace = 1 then per_layer w expected else end_to_end w expected;
  (* an op that raised recorded an outcome no kernel returns *)
  if tally.mismatched > 0 then fail (Printf.sprintf "%d outcomes differ from the oracle" tally.mismatched);
  List.iter (fun m -> prerr_endline ("FAIL " ^ m)) (List.rev !failures);
  let body =
    List.rev_map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failures = []) (max 1 tally.attempted) tally.mismatched (String.concat ", " body);
  exit (if !failures = [] then 0 else 1)
