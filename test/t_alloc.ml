(* Allocation-discipline and DLHT-churn tests: the warm fastpath must not
   touch the minor heap (the optimization is worthless if every lookup pays
   a GC tax), the in-place path hasher must agree with the pure
   [Path.split]-based one, and intrusive bucket churn must keep the table
   structurally exact. *)

open Dcache_types
open Kit
module Fastpath = Dcache_core.Fastpath
module Dlht = Dcache_core.Dlht
module Signature = Dcache_sig.Signature
module Path = Dcache_vfs.Path
module Proc = Dcache_syscalls.Proc
module Trace = Dcache_util.Trace
module Rwlock = Dcache_util.Rwlock
module Dcache = Dcache_vfs.Dcache

(* Top-level so the measured loop doesn't even pay for a closure. *)
let within_unit _mnt _dentry = Ok ()

(* [Gc.minor_words] itself allocates its boxed float result, and that box is
   charged to the *next* reading.  Calibrate by taking two back-to-back
   readings: their difference is exactly the allocation cost of one call,
   which we subtract from the measured window. *)
let measure_minor_words iters f =
  f ();
  f ();
  (* warm *)
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let self = b -. a in
  for _ = 1 to iters do
    f ()
  done;
  let c = Gc.minor_words () in
  c -. b -. self

let probe_ok fp ctx path =
  match Fastpath.lookup_into fp ctx path ~within:within_unit with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected %s on %s" (Errno.to_string e) path

let probe_enoent fp ctx path =
  match Fastpath.lookup_into fp ctx path ~within:within_unit with
  | Ok () -> Alcotest.failf "unexpected success on %s" path
  | Error Errno.ENOENT -> ()
  | Error e -> Alcotest.failf "unexpected %s on %s" (Errno.to_string e) path

let test_warm_hit_zero_alloc () =
  (* Tracing hooks are compiled into every probe site; this asserts the
     disarmed half of the overhead discipline — the stamps are present but
     must cost nothing. *)
  Alcotest.(check bool) "tracing ring disarmed" false !Trace.armed;
  Alcotest.(check bool) "tracing timing disarmed" false !Trace.timing;
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let hits_before () = counter kernel "fastpath_hit" in
  probe_ok fp ctx "/a/b/c/target";
  (* warmed: from here on every probe must be a DLHT hit *)
  let h0 = hits_before () in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> probe_ok fp ctx "/a/b/c/target") in
  let reads, writes = Rwlock.acquisition_counts () in
  Alcotest.(check int) "all probes were fastpath hits" (iters + 2) (hits_before () - h0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over 10k warm hits" 0.0 words;
  (* The lockless tier: a warm hit must not fall back to the read-locked
     probe, let alone the write-locked slowpath. *)
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over 10k warm hits" (0, 0)
    (reads, writes)

let test_warm_lexical_hit_zero_alloc () =
  (* Plan 9 lexical ".." is resolved in the scanner: popping "x" rewinds
     the running hash to the boundary before it, with no component list. *)
  let config = { Config.optimized with Config.dotdot = Config.Dotdot_lexical } in
  let kernel, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let path = "/a/b/x/../c/target" in
  probe_ok fp ctx path;
  let h0 = counter kernel "fastpath_hit" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> probe_ok fp ctx path) in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "all probes were fastpath hits" (iters + 2)
    (counter kernel "fastpath_hit" - h0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over 10k lexical hits" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over 10k lexical hits" (0, 0)
    locks

let test_warm_lease_hit_zero_alloc () =
  (* The lease gate sits on the lockless commit path (§3.7): a warm hit on
     a stateful network mount consults the client's lease table for the
     final inode and its parent directory.  That consult must cost nothing
     — no RPC, no lock, no minor-heap word — or the fastpath's case for
     trusting the cache collapses. *)
  let module Netfs = Dcache_fs.Netfs in
  let module Vclock = Dcache_util.Vclock in
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let server = Netfs.server ~rpc_latency_ns:1000 ~clock backing in
  let kernel =
    Kernel.create ~config:Config.optimized
      ~root_fs:(Netfs.client ~protocol:Netfs.Stateful server)
      ()
  in
  let p = Proc.spawn kernel in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_ok fp ctx "/a/b/c/target";
  let h0 = counter kernel "fastpath_hit" in
  let iters = 10_000 in
  Netfs.reset_rpc_count server;
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> probe_ok fp ctx "/a/b/c/target") in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "all probes were fastpath hits" (iters + 2)
    (counter kernel "fastpath_hit" - h0);
  Alcotest.(check int) "zero RPCs over 10k live-lease hits" 0 (Netfs.rpc_count server);
  Alcotest.(check (float 0.0)) "zero minor-heap words over 10k live-lease hits" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over 10k live-lease hits"
    (0, 0) locks

let test_warm_negative_hit_zero_alloc () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b");
  ignore (S.stat p "/a/b/nothing");
  (* cache the negative *)
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_enoent fp ctx "/a/b/nothing";
  let neg0 = counter kernel "fastpath_negative_hit" in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words 10_000 (fun () -> probe_enoent fp ctx "/a/b/nothing")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check bool) "served from the negative cache" true
    (counter kernel "fastpath_negative_hit" > neg0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over warm negative hits" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over warm negative hits" (0, 0)
    locks

(* --- armed-tracing allocation discipline ---

   The ring is three preallocated int arrays and the default timestamp is
   the stamp's own sequence number, so even an *armed* stamp must not touch
   the minor heap — and a warm fastpath hit with the ring armed must stay
   at zero words too.  (Only [timing] mode allocates: the monotonic clock
   read boxes an Int64; that mode is exercised by the bench, not here.) *)

let test_armed_ring_stamp_zero_alloc () =
  Trace.reset ();
  Trace.armed := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let iters = 10_000 in
      let words =
        measure_minor_words iters (fun () -> Trace.stamp Trace.ev_fast_hit 7)
      in
      Alcotest.(check bool) "stamps landed in the ring" true
        (Trace.recorded () >= iters);
      Alcotest.(check (float 0.0)) "armed ring stamp allocates zero words" 0.0 words)

let test_warm_hit_armed_ring_zero_alloc () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_ok fp ctx "/a/b/c/target";
  Trace.reset ();
  Trace.armed := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let iters = 10_000 in
      let words =
        measure_minor_words iters (fun () -> probe_ok fp ctx "/a/b/c/target")
      in
      Alcotest.(check bool) "hits were stamped" true (Trace.recorded () >= iters);
      Alcotest.(check (float 0.0)) "warm hit with armed ring allocates zero words" 0.0
        words)

(* --- §3.8 profiler allocation discipline ---

   The profiler hooks ride the same probe sites as the ring stamps and
   owe the same debt: disarmed, one load-and-branch; armed, int/pointer
   stores into preallocated arrays.  Span minting is an increment off a
   per-domain block (the block refill is one Atomic.fetch_and_add, still
   no allocation), and a sketch update never leaves its parallel int
   arrays. *)

module Profiler = Dcache_util.Profiler

let test_profiler_hooks_zero_alloc () =
  Profiler.reset ();
  Fun.protect
    ~finally:(fun () ->
      Profiler.disarm ();
      Profiler.reset ())
    (fun () ->
      let iters = 10_000 in
      let hooks () =
        ignore (Profiler.span_enter ());
        Profiler.hh_record 7 "dir" Profiler.m_hit
      in
      let words = measure_minor_words iters hooks in
      Alcotest.(check (float 0.0)) "disarmed hooks allocate zero words" 0.0 words;
      Alcotest.(check int) "disarmed hooks record nothing" 0
        (List.length (Profiler.hot ()));
      Profiler.arm ();
      let words = measure_minor_words iters hooks in
      Alcotest.(check bool) "spans were minted" true (Profiler.current () <> 0);
      (match Profiler.hot () with
      | [ s ] ->
        Alcotest.(check bool) "sketch counted every armed call" true
          (s.Profiler.h_metrics.(Profiler.m_hit) >= iters)
      | slots -> Alcotest.failf "expected one resident slot, got %d" (List.length slots));
      Alcotest.(check (float 0.0)) "armed hooks allocate zero words" 0.0 words)

let test_warm_hit_armed_profiler_zero_alloc () =
  (* The acceptance bar for §3.8: a warm fastpath hit with the profiler
     (and the ring) armed keeps the full zero-words, zero-locks
     discipline while the sketch attributes every hit to the parent
     directory. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_ok fp ctx "/a/b/c/target";
  Trace.reset ();
  Profiler.reset ();
  Trace.armed := true;
  Profiler.arm ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Profiler.disarm ();
      Trace.reset ();
      Profiler.reset ())
    (fun () ->
      let iters = 10_000 in
      Rwlock.reset_acquisition_counts ();
      let words =
        measure_minor_words iters (fun () -> probe_ok fp ctx "/a/b/c/target")
      in
      let locks = Rwlock.acquisition_counts () in
      let hits =
        List.fold_left
          (fun acc s ->
            if s.Profiler.h_label = "c" then acc + s.Profiler.h_metrics.(Profiler.m_hit)
            else acc)
          0 (Profiler.hot ())
      in
      Alcotest.(check bool) "sketch charged the parent directory" true (hits >= iters);
      Alcotest.(check (float 0.0)) "warm hit with armed profiler allocates zero words"
        0.0 words;
      Alcotest.(check (pair int int))
        "zero rwlock acquisitions with armed profiler" (0, 0) locks)

(* --- prefix-resume snapshot discipline (§3.5) --- *)

let test_snapshot_recording_zero_alloc () =
  (* The recording hasher is the warm path now — every probe feeds through
     it — so boundary snapshots must cost six int stores per component and
     nothing on the minor heap, including re-finalizing a snapshot into a
     preallocated buf (the miss scan's probe step). *)
  let key = Signature.create_key ~seed:5 () in
  let ms = Signature.mstate () in
  let sn = Signature.snaps ~slots:64 in
  let b = Signature.buf () in
  let path = "/usr/share/doc/package/readme" in
  let words =
    measure_minor_words 10_000 (fun () ->
        Signature.mstate_reset ms;
        Signature.snaps_reset sn;
        let rc = Signature.hash_path_into_rec key ms sn ~max_name:Path.max_name path ~pos:0 in
        if rc <> Signature.scan_done then Alcotest.fail "scan did not complete";
        Signature.finalize_into key ms b;
        Signature.finalize_snap_into key sn 1 b)
  in
  Alcotest.(check int) "one snapshot per boundary" 5 (Signature.snaps_count sn);
  Alcotest.(check bool) "no overflow" false (Signature.snaps_overflowed sn);
  Alcotest.(check (float 0.0)) "snapshot recording allocates zero words" 0.0 words

let test_prefix_resume_scratch_reuse () =
  (* A prefix-resumed miss allocates real work — the suffix string, the
     visited chain, the new dentry — but must NOT allocate snapshot state:
     the per-domain scratch arrays are reused.  A fresh [snaps] for
     max_path would be ~12k words per lookup; assert each resumed miss
     stays far below that. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  let deep = "/d0/d1/d2/d3/d4/d5/d6/d7/d8/d9/d10/d11/d12/d13/d14/d15" in
  get "chain" (S.mkdir_p p deep);
  let iters = 1_000 in
  let leaf i = Printf.sprintf "%s/f%d" deep i in
  for i = 0 to iters + 2 do
    get "leaf" (S.write_file p (leaf i) "x")
  done;
  (* Everything is warm from creation: purge, then re-warm only the
     ancestor chain, so each leaf stat below is a cold DLHT miss with all
     sixteen ancestors cached — the resumed-slowpath case. *)
  Kernel.drop_caches kernel;
  ignore (get "re-warm chain" (S.stat p deep));
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let resumes0 = counter kernel "fastpath_prefix_resume" in
  let i = ref 0 in
  let words =
    measure_minor_words iters (fun () ->
        probe_ok fp ctx (leaf !i);
        incr i)
  in
  let resumes = counter kernel "fastpath_prefix_resume" - resumes0 in
  Alcotest.(check bool)
    (Printf.sprintf "misses were prefix-resumed (%d)" resumes)
    true
    (resumes >= iters);
  let per_op = words /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "resumed miss reuses snapshot scratch (%.0f words/op)" per_op)
    true (per_op < 3000.0)

let test_prefix_negfail_zero_alloc () =
  (* With deep negatives off, a DIR_COMPLETE fast-fail populates no
     negative dentry, so a repeatedly probed absent name takes the verdict
     path on *every* lookup — it must obey the same zero-allocation
     discipline as a warm hit (top-level scan recursion, constant verdict
     exception, in-place substring child probe). *)
  let config = { Config.optimized with Config.deep_negative = false } in
  let kernel, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  ignore (get "readdir" (S.readdir_path p "/a/b/c"));
  (* dir now DIR_COMPLETE *)
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_enoent fp ctx "/a/b/c/ghost";
  let n0 = counter kernel "fastpath_prefix_negfail" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words iters (fun () -> probe_enoent fp ctx "/a/b/c/ghost")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every probe was a prefix fast-fail" (iters + 2)
    (counter kernel "fastpath_prefix_negfail" - n0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over prefix fast-fails" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over prefix fast-fails" (0, 0)
    locks

let test_negfail_promotion_zero_alloc () =
  (* With deep negatives on (the optimized default), the first
     DIR_COMPLETE fast-fail *promotes*: the absent name is published as a
     signed negative dentry, so every later probe is a warm negative hit —
     still zero words, zero locks, but no prefix scan at all. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  ignore (get "readdir" (S.readdir_path p "/a/b/c"));
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_enoent fp ctx "/a/b/c/ghost";
  Alcotest.(check bool) "first fast-fail promoted a negative dentry" true
    (counter kernel "fastpath_negfail_promoted" >= 1);
  probe_enoent fp ctx "/a/b/c/ghost";
  let neg0 = counter kernel "fastpath_negative_hit" in
  let negfail0 = counter kernel "fastpath_prefix_negfail" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words iters (fun () -> probe_enoent fp ctx "/a/b/c/ghost")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every probe was a warm negative hit" (iters + 2)
    (counter kernel "fastpath_negative_hit" - neg0);
  Alcotest.(check int) "no further prefix fast-fails" 0
    (counter kernel "fastpath_prefix_negfail" - negfail0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over promoted negatives" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over promoted negatives"
    (0, 0) locks

(* --- in-place hasher vs. the pure split-based hasher --- *)

let reference_signature key comps =
  let state =
    List.fold_left
      (fun st comp ->
        match comp with
        | Path.Cur | Path.Up -> st
        | Path.Name name -> Signature.feed_string key (Signature.feed_char key st '/') name)
      Signature.empty_state comps
  in
  Signature.finalize key state

let inplace_signature key ~max_name path =
  let ms = Signature.mstate () in
  let b = Signature.buf () in
  let rc = Signature.hash_path_into key ms ~max_name path ~pos:0 in
  Alcotest.(check int) (Printf.sprintf "scan of %S completes" path) Signature.scan_done rc;
  Signature.finalize_into key ms b;
  Signature.of_buf b

let check_equivalent key path =
  match Path.split path with
  | Error e -> Alcotest.failf "reference split of %S failed: %s" path (Errno.to_string e)
  | Ok comps ->
    let reference = reference_signature key comps in
    let inplace = inplace_signature key ~max_name:Path.max_name path in
    Alcotest.(check int)
      (Printf.sprintf "in-place hash of %S matches split+feed_string" path)
      0
      (Signature.compare_full reference inplace)

let test_inplace_hasher_equivalence () =
  let key = Signature.create_key ~seed:42 () in
  List.iter (check_equivalent key)
    [
      "/";
      "/a";
      "a";
      "/a/b/c";
      "a/b/c";
      "//a//b//c";
      "/a/b/c/";
      "a/b/";
      ".";
      "/.";
      "./a/./b/.";
      "/a/./b";
      "a//b///c////d";
      "/...";
      (* "..." is a regular name, not a dot-dot *)
      "/..a/b..";
      "/" ^ String.make 255 'n';
      (* longest legal component *)
    ]

let test_inplace_hasher_resume_mid_path () =
  (* Resuming from a non-empty state (the cwd case) must agree with feeding
     the whole canonical path at once. *)
  let key = Signature.create_key ~seed:43 () in
  let whole = inplace_signature key ~max_name:Path.max_name "/home/user/project/file" in
  let prefix_state =
    List.fold_left
      (fun st name -> Signature.feed_string key (Signature.feed_char key st '/') name)
      Signature.empty_state [ "home"; "user" ]
  in
  let ms = Signature.mstate () in
  let b = Signature.buf () in
  Signature.mstate_resume ms prefix_state;
  let rc = Signature.hash_path_into key ms ~max_name:Path.max_name "project/file" ~pos:0 in
  Alcotest.(check int) "resumed scan completes" Signature.scan_done rc;
  Signature.finalize_into key ms b;
  Alcotest.(check int) "resumed hash agrees" 0
    (Signature.compare_full whole (Signature.of_buf b))

let test_inplace_hasher_dotdot_cursor () =
  let key = Signature.create_key ~seed:7 () in
  let ms = Signature.mstate () in
  let b = Signature.buf () in
  let path = "a/../b" in
  let rc = Signature.hash_path_into key ms ~max_name:Path.max_name path ~pos:0 in
  Alcotest.(check int) "stops just past the dot-dot" 4 rc;
  Signature.finalize_into key ms b;
  Alcotest.(check int) "prefix state covers only \"a\"" 0
    (Signature.compare_full
       (reference_signature key [ Path.Name "a" ])
       (Signature.of_buf b));
  (* The caller re-seeds the state (here: from scratch, as if the walk
     stepped up to the root) and resumes at the returned cursor. *)
  Signature.mstate_reset ms;
  let rc2 = Signature.hash_path_into key ms ~max_name:Path.max_name path ~pos:rc in
  Alcotest.(check int) "rest of the path completes" Signature.scan_done rc2;
  Signature.finalize_into key ms b;
  Alcotest.(check int) "suffix hash is \"/b\"" 0
    (Signature.compare_full
       (reference_signature key [ Path.Name "b" ])
       (Signature.of_buf b))

let test_inplace_hasher_grow () =
  (* A fresh key starts with 512 positions of key material; a long component
     must grow it mid-feed and still agree with the pure hasher (which grows
     through the same tables). *)
  let key = Signature.create_key ~seed:9 () in
  let long = String.make 600 'x' in
  let path = "/" ^ long ^ "/" ^ String.make 700 'y' in
  let reference =
    reference_signature key [ Path.Name long; Path.Name (String.make 700 'y') ]
  in
  let inplace = inplace_signature key ~max_name:4096 path in
  Alcotest.(check int) "growth preserves equivalence" 0
    (Signature.compare_full reference inplace)

let test_inplace_hasher_toolong () =
  let key = Signature.create_key ~seed:11 () in
  let ms = Signature.mstate () in
  let path = "/ok/" ^ String.make (Path.max_name + 1) 'z' in
  let rc = Signature.hash_path_into key ms ~max_name:Path.max_name path ~pos:0 in
  Alcotest.(check int) "component over max_name is rejected" Signature.scan_toolong rc;
  (* parity with the list-based validation *)
  (match Path.split path with
  | Error Errno.ENAMETOOLONG -> ()
  | Error e -> Alcotest.failf "split: unexpected %s" (Errno.to_string e)
  | Ok _ -> Alcotest.fail "split accepted an over-long component")

(* --- intrusive DLHT churn --- *)

let dlht_of kernel (p : Proc.t) =
  let cfg = Kernel.config kernel in
  Dlht.of_namespace ~buckets:cfg.Config.dlht_buckets ~grow_load:cfg.Config.dlht_grow_load
    p.Proc.ns

let check_healthy what dlht =
  Alcotest.(check (list string)) (what ^ ": self_check clean") [] (Dlht.self_check dlht);
  let occ = Dlht.occupancy dlht in
  Alcotest.(check int)
    (what ^ ": occupancy agrees with population")
    (Dlht.population dlht) occ.Dlht.occ_entries

let test_dlht_churn () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "dir" (S.mkdir_p p "/dir");
  let name i = Printf.sprintf "/dir/f%d" i in
  let renamed i = Printf.sprintf "/dir/g%d" i in
  for i = 1 to 50 do
    get "create" (S.write_file p (name i) "x")
  done;
  for i = 1 to 50 do
    ignore (get "warm" (S.stat p (name i)))
  done;
  let dlht = dlht_of kernel p in
  Alcotest.(check bool) "warm walk populated the table" true (Dlht.population dlht >= 50);
  check_healthy "after warm" dlht;
  (* Unlink half: aggressive negative caching (§5.2) flips each dentry to a
     negative entry in place — the DLHT entry survives, population must not
     drift, and the ENOENT re-stats are served by the fastpath. *)
  let pop_before = Dlht.population dlht in
  for i = 1 to 25 do
    get "unlink" (S.unlink p (name i))
  done;
  check_healthy "after unlink churn" dlht;
  Alcotest.(check int) "unlink keeps negative entries resident" pop_before
    (Dlht.population dlht);
  let neg_before = counter kernel "fastpath_negative_hit" in
  for i = 1 to 25 do
    expect_err Errno.ENOENT "unlinked name misses" (S.stat p (name i))
  done;
  Alcotest.(check int) "ENOENT re-stats are fastpath negative hits"
    (neg_before + 25)
    (counter kernel "fastpath_negative_hit");
  for i = 1 to 25 do
    get "recreate" (S.write_file p (name i) "y")
  done;
  for i = 1 to 50 do
    ignore (get "re-warm" (S.stat p (name i)))
  done;
  check_healthy "after recreate" dlht;
  (* Rename churn: every rename shoots down the old path's entry. *)
  for i = 1 to 50 do
    get "rename" (S.rename p (name i) (renamed i))
  done;
  for i = 1 to 50 do
    ignore (get "warm renamed" (S.stat p (renamed i)))
  done;
  for i = 1 to 50 do
    expect_err Errno.ENOENT "old name gone" (S.stat p (name i))
  done;
  check_healthy "after rename churn" dlht;
  Kernel.drop_caches kernel;
  check_healthy "after drop_caches" dlht

let test_dlht_mount_alias_churn () =
  (* Re-signaturing under a different mount alias removes and re-inserts the
     dentry with a different signature; the chain splices must stay exact
     while two aliases fight over the same dentries. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b");
  get "file" (S.write_file p "/a/b/t" "x");
  get "bp1" (S.mkdir_p p "/m1");
  get "bp2" (S.mkdir_p p "/m2");
  get "bind1" (S.bind_mount p ~src:"/a/b" ~dst:"/m1");
  get "bind2" (S.bind_mount p ~src:"/a/b" ~dst:"/m2");
  let dlht = dlht_of kernel p in
  for _ = 1 to 5 do
    ignore (get "via m1" (S.stat p "/m1/t"));
    ignore (get "via m2" (S.stat p "/m2/t"));
    ignore (get "direct" (S.stat p "/a/b/t"))
  done;
  Alcotest.(check bool) "aliases forced re-signatures" true
    (counter kernel "mount_alias_resignature" > 0);
  check_healthy "after alias ping-pong" dlht

let test_dlht_bucket_validation () =
  (* Baseline kernels never create a DLHT, so the namespace is free for a
     direct module-level check. *)
  let _kernel, p = ram_kernel ~config:Config.baseline () in
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Dlht.of_namespace: bucket count must be a positive power of two")
    (fun () -> ignore (Dlht.of_namespace ~buckets:1000 ~grow_load:0 p.Proc.ns));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Dlht.of_namespace: bucket count must be a positive power of two")
    (fun () -> ignore (Dlht.of_namespace ~buckets:0 ~grow_load:0 p.Proc.ns));
  let dlht = Dlht.of_namespace ~buckets:64 ~grow_load:0 p.Proc.ns in
  Alcotest.(check int) "fresh table is empty" 0 (Dlht.population dlht);
  let occ = Dlht.occupancy dlht in
  Alcotest.(check int) "64 buckets" 64 occ.Dlht.occ_buckets

(* --- incremental auto-resize --- *)

let test_dlht_incremental_resize () =
  (* Start tiny so the doublings are forced by an ordinary workload, then
     check the table grew without ever losing an entry: every warm re-stat
     must still be a fastpath hit, across and after the migrations. *)
  let config = { Config.optimized with Config.dlht_buckets = 16 } in
  let kernel, p = ram_kernel ~config () in
  get "dir" (S.mkdir_p p "/dir");
  let n = 300 in
  for i = 1 to n do
    get "create" (S.write_file p (Printf.sprintf "/dir/f%d" i) "x")
  done;
  for i = 1 to n do
    ignore (get "warm" (S.stat p (Printf.sprintf "/dir/f%d" i)))
  done;
  let dlht = dlht_of kernel p in
  Alcotest.(check bool) "table grew" true (Dlht.resizes dlht > 0);
  let occ = Dlht.occupancy dlht in
  Alcotest.(check bool) "bucket array doubled away from 16" true (occ.Dlht.occ_buckets > 16);
  (* grow_load bounds the load factor, so the longest chain stays short even
     though we crossed several doublings. *)
  Alcotest.(check bool) "chains stay bounded" true (occ.Dlht.occ_longest <= 16);
  check_healthy "mid-resize" dlht;
  let h0 = counter kernel "fastpath_hit" in
  for i = 1 to n do
    ignore (get "re-stat" (S.stat p (Printf.sprintf "/dir/f%d" i)))
  done;
  Alcotest.(check int) "every re-stat hit the fastpath across migrations" n
    (counter kernel "fastpath_hit" - h0);
  (* Drain any in-flight migration and make sure nothing was stranded in
     the pre-resize table. *)
  Dcache.with_write (Kernel.dcache kernel) (fun () -> Dlht.settle dlht);
  Alcotest.(check bool) "settled" false (Dlht.resizing dlht);
  let occ = Dlht.occupancy dlht in
  Alcotest.(check int) "no entries pending migration" 0 occ.Dlht.occ_old_pending;
  check_healthy "after settle" dlht;
  let h1 = counter kernel "fastpath_hit" in
  for i = 1 to n do
    ignore (get "settled re-stat" (S.stat p (Printf.sprintf "/dir/f%d" i)))
  done;
  Alcotest.(check int) "every re-stat hits after settle" n
    (counter kernel "fastpath_hit" - h1)

let test_dlht_sigless_scan_recovery () =
  (* Break the remove invariant on purpose — a chained dentry whose
     signature was cleared out from under the table — and check the
     defensive whole-table scan repairs the bucket and is counted. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b");
  get "file" (S.write_file p "/a/b/t" "x");
  ignore (get "warm" (S.stat p "/a/b/t"));
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let d =
    match Fastpath.lookup_into fp ctx "/a/b/t" ~within:(fun _mnt d -> Ok d) with
    | Ok d -> d
    | Error e -> Alcotest.failf "lookup: %s" (Errno.to_string e)
  in
  let dlht = dlht_of kernel p in
  Alcotest.(check bool) "dentry is chained" true
    (d.Dcache_vfs.Types.d_dlht_ns <> None);
  let pop = Dlht.population dlht in
  Alcotest.(check int) "no scans yet" 0 (Dlht.sigless_scans dlht);
  Dcache.with_write (Kernel.dcache kernel) (fun () ->
      d.Dcache_vfs.Types.d_sig <- None;
      Dlht.remove d);
  Alcotest.(check int) "degraded removal was counted" 1 (Dlht.sigless_scans dlht);
  Alcotest.(check int) "entry left the table" (pop - 1) (Dlht.population dlht);
  check_healthy "after sigless removal" dlht;
  (* The next walk re-signatures and republishes; the table heals. *)
  ignore (get "re-stat" (S.stat p "/a/b/t"));
  Alcotest.(check int) "republished" pop (Dlht.population dlht);
  check_healthy "after republication" dlht

let test_warm_batch_zero_alloc () =
  (* The vectored front-end's whole pitch (§3.9) is amortization on top of
     the warm fastpath, so it inherits the same discipline: a warm all-hit
     submit — one shared validation window over N probes — must allocate
     zero minor-heap words and take zero rwlocks, per submit, not just
     per op. *)
  let module Batch = Dcache_syscalls.Batch in
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  let n = 32 in
  let paths =
    Array.init n (fun i -> Printf.sprintf "/a/b/c/t%02d" i)
  in
  Array.iter (fun path -> get "file" (S.write_file p path "payload")) paths;
  let ring = Batch.create ~cap:n p in
  Array.iteri
    (fun i path ->
      let slot =
        match i mod 3 with
        | 0 -> Batch.push_stat ring path
        | 1 -> Batch.push_lstat ring path
        | _ -> Batch.push_access ring path Access.may_read
      in
      Alcotest.(check int) "slot" i slot)
    paths;
  (* One cold submit warms every dentry into the DLHT; the SQ persists
     across submits (only [reset] clears it), so the measured loop re-runs
     the identical batch. *)
  Batch.submit ring;
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "slot %d ok" i) true (Batch.ok ring i)
  done;
  let submits0 = counter kernel "batch_submit" in
  let h0 = counter kernel "fastpath_hit" in
  let iters = 1_000 in
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> Batch.submit ring) in
  let reads, writes = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every submit ran" (iters + 2)
    (counter kernel "batch_submit" - submits0);
  Alcotest.(check int) "every probe was a fastpath hit"
    ((iters + 2) * n)
    (counter kernel "fastpath_hit" - h0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "zero minor-heap words over %d warm %d-op submits" iters n)
    0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions across all submits" (0, 0)
    (reads, writes);
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "slot %d still ok" i) true (Batch.ok ring i)
  done

(* --- syscall-entry allocation bounds ---

   The syscall front end around the probe keeps the probe's discipline: a
   warm hit allocates its result and, where the call needs one, a single
   partial application — counters are cells, the walk context is the
   process's cached one, lookup flags and the dirfd's [?start] are
   preallocated options, and wall-clock classing takes stamps.  Per-call
   bounds, in minor words, on an 8-component path:
   - stat, lstat, fstatat: the returned [Ok attr] (2);
   - access, faccessat: the [within] partial application over
     (proc, mask) — 7 words on OCaml 5.1 — under a bound of 8 that leaves
     room for the closure layout of other compiler versions. *)

let test_warm_syscall_alloc_bounds () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  let dir = "/s1/s2/s3/s4/s5/s6/s7" in
  let path = dir ^ "/target" in
  get "tree" (S.mkdir_p p dir);
  get "file" (S.write_file p path "payload");
  let dirfd = get "dirfd" (S.openf p "/s1/s2/s3" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
  let rel = "s4/s5/s6/s7/target" in
  let iters = 2_000 in
  let check name bound f =
    f ();
    (* warmed: from here on every call must be a DLHT hit *)
    let h0 = counter kernel "fastpath_hit" in
    let words = measure_minor_words iters f /. float_of_int iters in
    Alcotest.(check int) (name ^ ": every call a fastpath hit") (iters + 2)
      (counter kernel "fastpath_hit" - h0);
    if words > bound then
      Alcotest.failf "%s: %.2f minor words per warm call, bound %.0f" name words bound
  in
  let ok what = function Ok _ -> () | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e) in
  check "stat" 2.0 (fun () -> ok "stat" (S.stat p path));
  check "lstat" 2.0 (fun () -> ok "lstat" (S.lstat p path));
  check "fstatat" 2.0 (fun () -> ok "fstatat" (S.fstatat p dirfd rel ()));
  check "access" 8.0 (fun () -> ok "access" (S.access p path Access.may_read));
  check "faccessat" 8.0 (fun () -> ok "faccessat" (S.faccessat p dirfd rel Access.may_read))

(* --- §5.1 cache-fed readdir allocation discipline ---

   The whole-listing scratch fill is the dirent analogue of the warm hit:
   after the first (cold, promoting, scratch-growing) call, every repeat
   on an unchanged DIR_COMPLETE directory must be a lockless seqcount-
   validated walk — zero minor-heap words, zero rwlock acquisitions, no
   stripe mutexes (asserted via the rwlock counts: the stripe sections all
   nest inside the read lock, so zero reads implies zero stripes). *)

let n_listing = 64

let test_warm_readdir_fill_zero_alloc () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "dir" (S.mkdir_p p "/ls");
  for i = 0 to n_listing - 1 do
    get "seed" (S.write_file p (Printf.sprintf "/ls/f%02d" i) "x")
  done;
  let fd = get "open" (S.openf p "/ls" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
  (* Cold fill: promotes the backend listing, marks DIR_COMPLETE, grows
     the scratch.  Everything after must be warm. *)
  let n = S.readdir_fill p fd in
  Alcotest.(check int) "cold fill sees every entry" n_listing n;
  let warm0 = counter kernel "readdir_scratch_warm" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words iters (fun () ->
        if S.readdir_fill p fd <> n_listing then Alcotest.fail "short warm listing")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every fill took the lockless path" (iters + 2)
    (counter kernel "readdir_scratch_warm" - warm0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "zero minor-heap words over %d warm %d-entry listings" iters n_listing)
    0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over warm listings" (0, 0)
    locks;
  (* A mutation devalidates exactly once: the next fill goes cold (stripe
     locked, re-promoted), the one after is warm again. *)
  get "churn" (S.write_file p "/ls/new" "y");
  Alcotest.(check int) "post-churn fill sees the new entry" (n_listing + 1)
    (S.readdir_fill p fd);
  let warm1 = counter kernel "readdir_scratch_warm" in
  Alcotest.(check int) "re-warmed" (n_listing + 1) (S.readdir_fill p fd);
  Alcotest.(check int) "second post-churn fill is warm again" 1
    (counter kernel "readdir_scratch_warm" - warm1)

let test_negative_list_eviction_bounded () =
  (* §6.3: negative dentries live on per-stripe bounded LRU lists.  A
     stat storm of absent names far beyond the cap must evict (counted),
     keep every list at or under the cap, and never disturb cache
     structure. *)
  let cap = 8 in
  let config = { Config.optimized with Config.neg_list_cap = cap } in
  let kernel, p = ram_kernel ~config () in
  let d = Kernel.dcache kernel in
  get "dirs" (S.mkdir_p p "/neg/a");
  get "dirs" (S.mkdir_p p "/neg/b");
  let storm = 40 * cap in
  for i = 0 to storm - 1 do
    let parent = if i land 1 = 0 then "a" else "b" in
    expect_err Errno.ENOENT "absent"
      (S.stat p (Printf.sprintf "/neg/%s/ghost%d" parent i))
  done;
  let occ = Dcache.neg_occupancy d in
  Array.iteri
    (fun i n ->
      if n > cap then
        Alcotest.failf "neg list %d holds %d entries over the cap %d" i n cap)
    occ;
  Alcotest.(check bool) "the storm forced evictions" true
    (counter kernel "neg_evicted" > 0);
  Alcotest.(check bool) "some negatives stayed resident" true
    (Array.fold_left ( + ) 0 occ > 0);
  (match Dcache.self_check d with
  | [] -> ()
  | problems -> Alcotest.failf "invariants violated:\n%s" (String.concat "\n" problems));
  (* Eviction preserves DIR_COMPLETE (detach without reclaim): a completed
     directory hit by the storm still serves absent names by verdict. *)
  ignore (get "complete" (S.readdir_path p "/neg/a"));
  for i = 0 to 4 * cap do
    expect_err Errno.ENOENT "post-complete absent"
      (S.stat p (Printf.sprintf "/neg/a/more%d" i))
  done;
  Alcotest.(check bool) "lists still bounded after the second storm" true
    (Array.for_all (fun n -> n <= cap) (Dcache.neg_occupancy d));
  (* Per-mount generation invalidation: one store devalues every cached
     negative; the names still read as absent (via the backend), and the
     stale entries are unhashed lazily as they are touched. *)
  get "invalidate" (S.invalidate_negatives p "/");
  Alcotest.(check bool) "generation bump counted" true
    (counter kernel "neg_gen_invalidations" > 0);
  (* ghost319 is the newest /neg/b negative, so the LRU still holds it and
     the walk must trip over its stale generation (ghost1 would long since
     have been evicted). *)
  expect_err Errno.ENOENT "still absent after invalidation"
    (S.stat p (Printf.sprintf "/neg/b/ghost%d" (storm - 1)));
  Alcotest.(check bool) "stale negatives were detected" true
    (counter kernel "walk_stale_negative" > 0);
  (* cap 0 disables tracking entirely: no list ever grows. *)
  let kernel0, p0 =
    ram_kernel ~config:{ Config.optimized with Config.neg_list_cap = 0 } ()
  in
  get "dir" (S.mkdir_p p0 "/z");
  for i = 0 to 99 do
    expect_err Errno.ENOENT "absent" (S.stat p0 (Printf.sprintf "/z/no%d" i))
  done;
  Alcotest.(check int) "cap 0 tracks nothing" 0
    (Array.fold_left ( + ) 0 (Dcache.neg_occupancy (Kernel.dcache kernel0)))

let suite =
  [
    Alcotest.test_case "warm fastpath hit allocates zero minor words" `Quick
      test_warm_hit_zero_alloc;
    Alcotest.test_case "warm syscall entry allocates only its result" `Quick
      test_warm_syscall_alloc_bounds;
    Alcotest.test_case "warm DIR_COMPLETE readdir fill allocates zero minor words" `Quick
      test_warm_readdir_fill_zero_alloc;
    Alcotest.test_case "negative lists stay bounded under a stat storm" `Quick
      test_negative_list_eviction_bounded;
    Alcotest.test_case "warm all-hit batch submit allocates zero minor words" `Quick
      test_warm_batch_zero_alloc;
    Alcotest.test_case "warm live-lease hit allocates zero minor words" `Quick
      test_warm_lease_hit_zero_alloc;
    Alcotest.test_case "warm lexical hit through a popped .. allocates zero minor words"
      `Quick test_warm_lexical_hit_zero_alloc;
    Alcotest.test_case "warm negative hit allocates zero minor words" `Quick
      test_warm_negative_hit_zero_alloc;
    Alcotest.test_case "armed trace ring stamp allocates zero minor words" `Quick
      test_armed_ring_stamp_zero_alloc;
    Alcotest.test_case "warm hit with armed ring allocates zero minor words" `Quick
      test_warm_hit_armed_ring_zero_alloc;
    Alcotest.test_case "profiler hooks allocate zero minor words (armed and disarmed)"
      `Quick test_profiler_hooks_zero_alloc;
    Alcotest.test_case "warm hit with armed profiler stays zero-alloc, zero-lock" `Quick
      test_warm_hit_armed_profiler_zero_alloc;
    Alcotest.test_case "snapshot recording allocates zero minor words" `Quick
      test_snapshot_recording_zero_alloc;
    Alcotest.test_case "prefix-resumed miss reuses snapshot scratch" `Quick
      test_prefix_resume_scratch_reuse;
    Alcotest.test_case "prefix negative fast-fail allocates zero minor words" `Quick
      test_prefix_negfail_zero_alloc;
    Alcotest.test_case "promoted deep negative stays zero-alloc warm" `Quick
      test_negfail_promotion_zero_alloc;
    Alcotest.test_case "in-place hasher matches split+feed_string" `Quick
      test_inplace_hasher_equivalence;
    Alcotest.test_case "in-place hasher resumes from cached state" `Quick
      test_inplace_hasher_resume_mid_path;
    Alcotest.test_case "in-place hasher dot-dot cursor protocol" `Quick
      test_inplace_hasher_dotdot_cursor;
    Alcotest.test_case "in-place hasher grows key material" `Quick test_inplace_hasher_grow;
    Alcotest.test_case "in-place hasher rejects over-long components" `Quick
      test_inplace_hasher_toolong;
    Alcotest.test_case "DLHT churn keeps chains exact" `Quick test_dlht_churn;
    Alcotest.test_case "DLHT mount-alias re-signature churn" `Quick
      test_dlht_mount_alias_churn;
    Alcotest.test_case "DLHT bucket-count validation" `Quick test_dlht_bucket_validation;
    Alcotest.test_case "DLHT incremental resize under workload" `Quick
      test_dlht_incremental_resize;
    Alcotest.test_case "DLHT sigless removal degrades loudly and heals" `Quick
      test_dlht_sigless_scan_recovery;
  ]
