(* Network file system semantics (paper §4.3): stateless clients revalidate
   every cached component (nullifying direct lookup); stateful clients trust
   the cache and rely on callbacks. *)

open Dcache_types
open Kit
module Netfs = Dcache_fs.Netfs
module Vclock = Dcache_util.Vclock

let make ~protocol config =
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let server = Netfs.server ~rpc_latency_ns:1000 ~clock backing in
  let kernel = Kernel.create ~config ~root_fs:(Netfs.client ~protocol server) () in
  (kernel, Proc.spawn kernel, server, backing, clock)

let populate p =
  get "tree" (S.mkdir_p p "/export/data");
  get "file" (S.write_file p "/export/data/file" "remote contents")

let test_basic_ops protocol config () =
  let _, p, server, _, _ = make ~protocol config in
  populate p;
  Alcotest.(check string) "read over the wire" "remote contents"
    (get "read" (S.read_file p "/export/data/file"));
  get "rename" (S.rename p "/export/data/file" "/export/data/moved");
  expect_err Errno.ENOENT "old gone" (S.stat p "/export/data/file");
  ignore (get "new" (S.stat p "/export/data/moved"));
  Alcotest.(check bool) "rpcs happened" true (Netfs.rpc_count server > 0)

let test_stateless_revalidates_every_hit () =
  let kernel, p, server, _, _ = make ~protocol:Netfs.Stateless Config.optimized in
  populate p;
  ignore (get "warm" (S.stat p "/export/data/file"));
  Netfs.reset_rpc_count server;
  Kernel.reset_stats kernel;
  for _ = 1 to 10 do
    ignore (get "hot" (S.stat p "/export/data/file"))
  done;
  (* Three cached components, each revalidated per lookup: >= 30 RPCs. *)
  Alcotest.(check bool) "per-component RPCs" true (Netfs.rpc_count server >= 30);
  (* And the fastpath never engages (§4.3). *)
  Alcotest.(check int) "no direct lookups" 0 (counter kernel "fastpath_hit")

let test_stateful_trusts_cache () =
  let kernel, p, server, _, _ = make ~protocol:Netfs.Stateful Config.optimized in
  populate p;
  ignore (get "warm" (S.stat p "/export/data/file"));
  Netfs.reset_rpc_count server;
  Kernel.reset_stats kernel;
  for _ = 1 to 10 do
    ignore (get "hot" (S.stat p "/export/data/file"))
  done;
  Alcotest.(check int) "zero RPCs when warm" 0 (Netfs.rpc_count server);
  Alcotest.(check int) "all on the fastpath" 10 (counter kernel "fastpath_hit")

let test_stateless_sees_external_changes () =
  let _, p, server, backing, _ = make ~protocol:Netfs.Stateless Config.baseline in
  populate p;
  Alcotest.(check string) "before" "remote contents"
    (get "read" (S.read_file p "/export/data/file"));
  (* Another client rewrites the file directly on the server. *)
  let attr = get "server lookup" (backing.Dcache_fs.Fs_intf.getattr 1) in
  ignore attr;
  let dir =
    get "lookup export" (backing.Dcache_fs.Fs_intf.lookup backing.Dcache_fs.Fs_intf.root_ino "export")
  in
  let data = get "lookup data" (backing.Dcache_fs.Fs_intf.lookup dir.Attr.ino "data") in
  get "server unlink" (backing.Dcache_fs.Fs_intf.unlink data.Attr.ino "file");
  ignore (get "server create"
      (backing.Dcache_fs.Fs_intf.create data.Attr.ino "file" File_kind.Regular 0o644 ~uid:0 ~gid:0));
  Netfs.bump_generation server data.Attr.ino;
  (* Revalidation notices the stale dentry and refetches. *)
  let fresh = get "after" (S.stat p "/export/data/file") in
  Alcotest.(check int) "sees the replacement (new size)" 0 fresh.Attr.size

let test_stateful_callback_invalidates () =
  let _, p, server, backing, _ = make ~protocol:Netfs.Stateful Config.optimized in
  populate p;
  ignore (get "warm" (S.stat p "/export/data/file"));
  (* Wire the callback channel to the kernel's invalidation.  A directory
     callback must drop the directory's cached subtree (including its
     completeness): its contents changed on the server. *)
  (Netfs.callbacks server).Netfs.on_break <-
    (fun _ino -> get "cb" (S.invalidate_path p "/export/data"));
  (* External replacement + callback. *)
  let dir =
    get "lookup export" (backing.Dcache_fs.Fs_intf.lookup backing.Dcache_fs.Fs_intf.root_ino "export")
  in
  let data = get "lookup data" (backing.Dcache_fs.Fs_intf.lookup dir.Attr.ino "data") in
  get "server unlink" (backing.Dcache_fs.Fs_intf.unlink data.Attr.ino "file");
  ignore (get "server create"
      (backing.Dcache_fs.Fs_intf.create data.Attr.ino "bigger" File_kind.Regular 0o644 ~uid:0 ~gid:0));
  Netfs.break_callback server data.Attr.ino;
  (* The stale path is gone; the new name is visible. *)
  expect_err Errno.ENOENT "old invalidated" (S.stat p "/export/data/file");
  ignore (get "new visible" (S.stat p "/export/data/bigger"))

(* --- leases (§3.7): expiry, breaks, crash fencing, partitions, staleness --- *)

module Fault = Dcache_util.Fault
module Dcache = Dcache_vfs.Dcache

(* Short lease figures so tests can age leases out with small clock
   charges: 2 ms ttl, 0.2 ms skew, grace = ttl + skew (the minimum the
   server accepts). *)
let lease_ttl = 2_000_000

let lease_skew = 200_000

let make_leased ?faults ?(config = Config.optimized) () =
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let server =
    Netfs.server ~rpc_latency_ns:1000 ?faults ~lease_ttl_ns:lease_ttl
      ~grace_ns:(lease_ttl + lease_skew) ~skew_ns:lease_skew ~clock backing
  in
  let c, fs = Netfs.connect_fs ~protocol:Netfs.Stateful server in
  let kernel = Kernel.create ~config ~root_fs:fs () in
  (kernel, Proc.spawn kernel, server, c, clock)

let test_lease_expiry_forces_revalidation config () =
  let kernel, p, server, c, clock = make_leased ~config () in
  populate p;
  ignore (get "warm" (S.stat p "/export/data/file"));
  Netfs.reset_rpc_count server;
  Kernel.reset_stats kernel;
  for _ = 1 to 10 do
    ignore (get "hot" (S.stat p "/export/data/file"))
  done;
  Alcotest.(check int) "live leases: zero RPCs" 0 (Netfs.rpc_count server);
  Alcotest.(check bool) "gate consults answered live" true
    ((Netfs.lease_stats server c).Netfs.ls_gate_live > 0);
  (* Age every lease out; the next hit must fall back and revalidate. *)
  Vclock.charge clock (Int64.of_int (lease_ttl + lease_skew + 1));
  ignore (get "revalidated" (S.stat p "/export/data/file"));
  Alcotest.(check bool) "revalidation RPCs" true (Netfs.rpc_count server > 0);
  Alcotest.(check bool) "fastpath refused the dead lease" true
    (counter kernel "fastpath_lease_fallback" > 0);
  Alcotest.(check bool) "gate saw the expiry" true
    ((Netfs.lease_stats server c).Netfs.ls_gate_expired > 0);
  (* Revalidation re-earned every component's lease: lockless again. *)
  Netfs.reset_rpc_count server;
  for _ = 1 to 5 do
    ignore (get "rewarmed" (S.stat p "/export/data/file"))
  done;
  Alcotest.(check int) "regrant restores zero-RPC hits" 0 (Netfs.rpc_count server)

let test_lease_break_reaches_other_client () =
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let server = Netfs.server ~rpc_latency_ns:1000 ~clock backing in
  let cA, fsA = Netfs.connect_fs server in
  let kA = Kernel.create ~config:Config.optimized ~root_fs:fsA () in
  let pA = Proc.spawn kA in
  let _cB, fsB = Netfs.connect_fs server in
  let kB = Kernel.create ~config:Config.optimized ~root_fs:fsB () in
  let pB = Proc.spawn kB in
  populate pA;
  Alcotest.(check string) "A reads v0" "remote contents"
    (get "read A" (S.read_file pA "/export/data/file"));
  (* A's invalidation hook: drop the directory's cached subtree, the way
     kernel integrations wire the break delivery. *)
  Netfs.set_invalidate cA (fun _ino -> ignore (S.invalidate_path pA "/export/data"));
  (* B rewrites the file through its own mount; the server breaks A's
     lease before the mutation lands. *)
  get "B writes" (S.write_file pB "/export/data/file" "version two");
  Alcotest.(check bool) "A's lease was broken" true
    ((Netfs.lease_stats server cA).Netfs.ls_breaks > 0);
  Alcotest.(check bool) "eviction took the sharded path" true
    (counter kA "sharded_cb_invalidate" > 0);
  Alcotest.(check string) "A sees B's write" "version two"
    (get "read A again" (S.read_file pA "/export/data/file"))

let test_crash_epoch_fencing () =
  let inj = Fault.create ~seed:1 () in
  let _, p, server, c, clock = make_leased ~faults:inj () in
  populate p;
  ignore (get "warm" (S.stat p "/export/data/file"));
  (* Lose the first reply, then crash the server on the retransmission:
     the duplicate-reply-cache entry predates the new epoch, so it must be
     fenced and the mutation re-executed — after stalling out the grace
     period, by which time every lease the dead server forgot has
     expired. *)
  Fault.arm (Fault.site inj "netfs.drop") (Fault.Nth 1);
  Fault.arm (Fault.site inj "netfs.crash") (Fault.Nth 2);
  let v0 = Vclock.elapsed_ns clock in
  get "write survives the crash" (S.write_file p "/export/data/file" "post-crash contents");
  let st = Netfs.rpc_stats server in
  Alcotest.(check int) "one crash" 1 st.Netfs.rs_crashes;
  Alcotest.(check int) "stale DRC entry fenced" 1 st.Netfs.rs_fenced;
  Alcotest.(check int) "no duplicate-cache replay across epochs" 0 st.Netfs.rs_drc_hits;
  Alcotest.(check int) "epoch bumped" 1 (Netfs.epoch server);
  Alcotest.(check int) "client observed the new epoch" 1 (Netfs.client_epoch c);
  Alcotest.(check int) "client lease table flushed once" 1
    (Netfs.lease_stats server c).Netfs.ls_fences;
  Alcotest.(check bool) "mutation stalled past the grace period" true
    (Int64.sub (Vclock.elapsed_ns clock) v0 >= Int64.of_int (Netfs.grace_ns server));
  Alcotest.(check bool) "grace over once the mutation lands" true (not (Netfs.in_grace server));
  Alcotest.(check string) "exactly-once effect" "post-crash contents"
    (get "read back" (S.read_file p "/export/data/file"))

let test_partition_degradation_ladder () =
  let inj = Fault.create ~seed:1 () in
  let kernel, p, server, c, clock = make_leased ~faults:inj () in
  populate p;
  ignore (get "warm" (S.stat p "/export/data/file"));
  let partition = Fault.site inj "netfs.partition" in
  Fault.arm partition Fault.Always;
  (* Rung 1: live leases keep serving locklessly through the outage. *)
  Netfs.reset_rpc_count server;
  Kernel.reset_stats kernel;
  let gate0 = (Netfs.lease_stats server c).Netfs.ls_gate_live in
  for _ = 1 to 5 do
    ignore (get "served from live lease" (S.stat p "/export/data/file"))
  done;
  Alcotest.(check int) "no RPC while leases live" 0 (Netfs.rpc_count server);
  Alcotest.(check int) "all five on the fastpath" 5 (counter kernel "fastpath_hit");
  Alcotest.(check bool) "gate consulted" true
    ((Netfs.lease_stats server c).Netfs.ls_gate_live > gate0);
  (* Rung 2: leases age out; revalidation cannot reach the server, so the
     lookup surfaces EIO rather than a stale positive. *)
  Vclock.charge clock (Int64.of_int (lease_ttl + lease_skew + 1));
  expect_err Errno.EIO "degrades to EIO, never a stale hit" (S.stat p "/export/data/file");
  Alcotest.(check bool) "client gave up after retries" true
    ((Netfs.rpc_stats server).Netfs.rs_giveups > 0);
  Alcotest.(check bool) "partitioned exchanges counted" true
    ((Netfs.rpc_stats server).Netfs.rs_partitions > 0);
  (* Rung 3: EIO was never cached as absence — heal the link and the same
     path resolves positively again. *)
  Fault.disarm partition;
  ignore (get "heals" (S.stat p "/export/data/file"))

(* The acceptance property (§3.7): under any schedule of drops, partitions
   and crashes, no client observes a positive hit contradicting a
   server-side truth that changed more than [lease_ttl + skew] virtual ns
   earlier.  A reader kernel races a writer kernel through one faulty
   server; ground truth (present/ino/size per path) is probed directly on
   the backing store after every writer op, and every successful reader
   stat is audited against it.  EIO and ENOENT are not staleness events —
   the bound is about stale positives only. *)
let run_staleness_schedule seed =
  let module Prng = Dcache_util.Prng in
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let inj = Fault.create ~seed () in
  let server =
    Netfs.server ~rpc_latency_ns:1000 ~faults:inj ~lease_ttl_ns:lease_ttl
      ~grace_ns:(lease_ttl + lease_skew) ~skew_ns:lease_skew ~clock backing
  in
  let cA, fsA = Netfs.connect_fs server in
  let kA = Kernel.create ~config:Config.optimized ~root_fs:fsA () in
  let pA = Proc.spawn kA in
  let _cB, fsB = Netfs.connect_fs server in
  let kB = Kernel.create ~config:Config.optimized ~root_fs:fsB () in
  let pB = Proc.spawn kB in
  ignore kB;
  get "tree" (S.mkdir_p pB "/export");
  let names = Array.init 6 (fun i -> Printf.sprintf "f%d" i) in
  let paths = Array.map (fun n -> "/export/" ^ n) names in
  let dir_ino =
    (get "export ino"
       (backing.Dcache_fs.Fs_intf.lookup backing.Dcache_fs.Fs_intf.root_ino "export"))
      .Attr.ino
  in
  (* Ground truth per path: (present, ino, size), stamped with the virtual
     time its value last changed.  Probing happens after each writer op,
     so a change is never stamped earlier than it really was — the audit
     only errs conservative. *)
  let truth = Array.map (fun _ -> (false, -1, -1)) paths in
  let t_change = Array.map (fun _ -> 0L) paths in
  let probe_truth () =
    Array.iteri
      (fun i name ->
        let now_state =
          match backing.Dcache_fs.Fs_intf.lookup dir_ino name with
          | Ok a -> (true, a.Attr.ino, a.Attr.size)
          | Error _ -> (false, -1, -1)
        in
        if now_state <> truth.(i) then begin
          truth.(i) <- now_state;
          t_change.(i) <- Vclock.elapsed_ns clock
        end)
      names
  in
  probe_truth ();
  (* The reader's break hook: evict whichever path currently maps to the
     broken file inode.  Deliveries crossing a partition are lost — the
     lease ttl, not the hook, carries the bound. *)
  Netfs.set_invalidate cA (fun ino ->
      Array.iteri
        (fun i path ->
          match truth.(i) with
          | true, tino, _ when tino = ino -> ignore (S.invalidate_path pA path)
          | _ -> ())
        paths);
  let prng = Prng.create ((seed * 2654435761) lxor 0xbeef) in
  Fault.arm (Fault.site inj "netfs.drop") (Fault.Probability 0.15);
  Fault.arm (Fault.site inj "netfs.partition") (Fault.Probability 0.1);
  let bound = Int64.of_int (lease_ttl + lease_skew) in
  for step = 1 to 400 do
    if step mod 50 = 0 then Fault.arm (Fault.site inj "netfs.crash") (Fault.Nth 1);
    let wi = Prng.int prng (Array.length paths) in
    (match Prng.int prng 4 with
    | 0 -> ignore (S.write_file pB paths.(wi) (String.make (1 + Prng.int prng 32) 'w'))
    | 1 -> ignore (S.unlink pB paths.(wi))
    | 2 -> ignore (S.write_file pB paths.(wi) "fresh")
    | _ -> ());
    probe_truth ();
    (* Let leases age a little each step, occasionally a lot. *)
    Vclock.charge clock (Int64.of_int (Prng.int prng 400_000));
    if Prng.int prng 20 = 0 then Vclock.charge clock (Int64.of_int (lease_ttl / 2));
    let ri = Prng.int prng (Array.length paths) in
    let t_before = Vclock.elapsed_ns clock in
    (match S.stat pA paths.(ri) with
    | Ok attr ->
      let present, tino, tsize = truth.(ri) in
      let age = Int64.sub t_before t_change.(ri) in
      let fresh_enough = Int64.compare age bound <= 0 in
      if (not present) && not fresh_enough then
        Alcotest.failf "seed %d step %d: positive hit for %s absent for %Ld ns (bound %Ld)"
          seed step paths.(ri) age bound;
      if present && (tino <> attr.Attr.ino || tsize <> attr.Attr.size) && not fresh_enough
      then
        Alcotest.failf
          "seed %d step %d: stale attrs for %s (ino %d size %d vs truth ino %d size %d) \
           after %Ld ns (bound %Ld)"
          seed step paths.(ri) attr.Attr.ino attr.Attr.size tino tsize age bound
    | Error _ -> (* absence or unknown: not a staleness event *) ())
  done;
  let st = Netfs.rpc_stats server in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: crashes exercised" seed)
    true (st.Netfs.rs_crashes >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: partitions exercised" seed)
    true (st.Netfs.rs_partitions >= 1);
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d: reader dcache coherent" seed)
    []
    (Dcache.self_check (Kernel.dcache kA))

let test_lease_staleness_bound () = List.iter run_staleness_schedule [ 1; 1337; 9001 ]

let test_rpc_latency_charged () =
  let _, p, server, _, clock = make ~protocol:Netfs.Stateless Config.baseline in
  populate p;
  let v0 = Vclock.elapsed_ns clock in
  ignore (get "stat" (S.stat p "/export/data/file"));
  let delta = Int64.sub (Vclock.elapsed_ns clock) v0 in
  ignore server;
  Alcotest.(check bool) "virtual RPC time accrued" true (delta >= 1000L)

let suite =
  [
    Alcotest.test_case "stateless basic ops [baseline]" `Quick
      (test_basic_ops Netfs.Stateless Config.baseline);
    Alcotest.test_case "stateless basic ops [optimized]" `Quick
      (test_basic_ops Netfs.Stateless Config.optimized);
    Alcotest.test_case "stateful basic ops [optimized]" `Quick
      (test_basic_ops Netfs.Stateful Config.optimized);
    Alcotest.test_case "stateless revalidates every hit" `Quick
      test_stateless_revalidates_every_hit;
    Alcotest.test_case "stateful trusts the cache" `Quick test_stateful_trusts_cache;
    Alcotest.test_case "stateless sees external changes" `Quick
      test_stateless_sees_external_changes;
    Alcotest.test_case "stateful callback invalidates" `Quick
      test_stateful_callback_invalidates;
    Alcotest.test_case "rpc latency charged" `Quick test_rpc_latency_charged;
    Alcotest.test_case "lease expiry forces revalidation" `Quick
      (test_lease_expiry_forces_revalidation Config.optimized);
    Alcotest.test_case "lease expiry forces revalidation [lexical]" `Quick
      (test_lease_expiry_forces_revalidation
         { Config.optimized with Config.dotdot = Config.Dotdot_lexical });
    Alcotest.test_case "lease break reaches the other client" `Quick
      test_lease_break_reaches_other_client;
    Alcotest.test_case "crash recovery fences the old epoch" `Quick test_crash_epoch_fencing;
    Alcotest.test_case "partition degradation ladder" `Quick
      test_partition_degradation_ladder;
    Alcotest.test_case "staleness bounded by ttl + skew (seeds 1/1337/9001)" `Quick
      test_lease_staleness_bound;
  ]
