open Dcache_types
open Dcache_vfs.Types
module Vfs = Dcache_vfs
module Dcache = Vfs.Dcache
module Walk = Vfs.Walk
module Path = Vfs.Path
module Config = Vfs.Config
module Phases = Vfs.Phases
module Signature = Dcache_sig.Signature
module Counter = Dcache_util.Stats.Counter
module Seqcount = Dcache_util.Seqcount
module Trace = Dcache_util.Trace
module Profiler = Dcache_util.Profiler
module Clock = Dcache_util.Clock

module Locktab = Dcache_util.Locktab

type t = {
  dcache : Dcache.t;
  key : Signature.key;
  mutable simulate_pcc_miss : bool;
  (* Preallocated [Some max] for [Pcc.of_cred]: passing [~max_entries:n] to
     an optional parameter would box a fresh [Some] on every probe. *)
  pcc_max : int option;
  (* The dcache's sharded-mutation stripe table, resolved once: lockless
     probes record the stripes their dentry reads depend on (None when
     unsharded — recording is then a dead branch). *)
  dtab : Locktab.t option;
  (* Counter cells resolved once at creation: the probe bumps statistics
     with a per-domain atomic store instead of a per-lookup map lookup.
     Cells survive [Kernel.reset_stats] (Counter.reset zeroes in place). *)
  c_hit : Counter.cell;
  c_fallback : Counter.cell;
  c_neg : Counter.cell;
  c_dotdot : Counter.cell;
  c_refwalk : Counter.cell;
  c_lockless_retry : Counter.cell;
  c_locked_probe : Counter.cell;
  c_prefix_resume : Counter.cell;
  c_prefix_negfail : Counter.cell;
  c_prefix_stale : Counter.cell;
  c_negfail_promoted : Counter.cell;
  c_lease_fallback : Counter.cell;
  c_alias_resig : Counter.cell;
  c_populated : Counter.cell;
  c_eio_no_populate : Counter.cell;
  c_batch_split : Counter.cell;
  c_batch_deferred : Counter.cell;
}

let create dcache =
  let config = Dcache.config dcache in
  let key =
    Signature.create_key ~sig_bits:config.Config.sig_bits ~seed:config.Config.hash_seed ()
  in
  let counters = Dcache.counters dcache in
  let t =
    {
      dcache;
      key;
      simulate_pcc_miss = false;
      pcc_max = Some config.Config.pcc_max_entries;
      dtab = Dcache.stripes dcache;
      c_hit = Counter.cell counters "fastpath_hit";
      c_fallback = Counter.cell counters "fastpath_fallback";
      c_neg = Counter.cell counters "fastpath_negative_hit";
      c_dotdot = Counter.cell counters "fastpath_dotdot_sublookup";
      c_refwalk = Counter.cell counters "walk_refwalk_fallback";
      c_lockless_retry = Counter.cell counters "fastpath_lockless_retry";
      c_locked_probe = Counter.cell counters "fastpath_locked_probe";
      c_prefix_resume = Counter.cell counters "fastpath_prefix_resume";
      c_prefix_negfail = Counter.cell counters "fastpath_prefix_negfail";
      c_prefix_stale = Counter.cell counters "fastpath_prefix_stale";
      c_negfail_promoted = Counter.cell counters "fastpath_negfail_promoted";
      c_lease_fallback = Counter.cell counters "fastpath_lease_fallback";
      c_alias_resig = Counter.cell counters "mount_alias_resignature";
      c_populated = Counter.cell counters "fastpath_populated";
      c_eio_no_populate = Counter.cell counters "fastpath_eio_no_populate";
      c_batch_split = Counter.cell counters "fastpath_batch_split";
      c_batch_deferred = Counter.cell counters "fastpath_batch_deferred";
    }
  in
  (Dcache.hooks dcache).on_shootdown <- Dlht.remove;
  t

let dcache t = t.dcache
let key t = t.key
let set_simulate_pcc_miss t v = t.simulate_pcc_miss <- v
let config t = Dcache.config t.dcache

(* --- canonical hash states (§3.1) ---

   A dentry's hash state is the multilinear state after feeding its full
   canonical path *in the mount tree of the namespace it was reached in*:
   a mounted root inherits the state of its mountpoint.  States are computed
   lazily and cached on the dentry with plain single-field writes (racing
   recomputations produce equal values), only where creating state is
   allowed: under the write lock, never on the lockless probe. *)

let rec ensure_hstate t (r : path_ref) =
  let d = r.dentry in
  match d.d_hstate with
  | Some state -> state
  | None ->
    let state =
      if d == r.mnt.mnt_root then begin
        match r.mnt.mnt_mountpoint with
        | None -> Signature.empty_state
        | Some (pmnt, mountpoint) -> ensure_hstate t { mnt = pmnt; dentry = mountpoint }
      end
      else begin
        match d.d_parent with
        | None -> Signature.empty_state
        | Some parent ->
          let parent_state = ensure_hstate t { r with dentry = parent } in
          Signature.feed_string t.key (Signature.feed_char t.key parent_state '/') d.d_name
      end
    in
    d.d_hstate <- Some state;
    if d.d_mnt = None then d.d_mnt <- Some r.mnt;
    state

(* --- the probe (§3.1, §4.2) --- *)

exception Fall_back

(* The optimistic (lockless) probe observed a dcache write sequence change:
   everything it read is suspect, so it is retried (RCU-walk → ref-walk,
   §3.2).  Constant constructor — raising it allocates nothing. *)
exception Seq_retry

(* The lockless probe needs state it may not create (a namespace's DLHT, a
   credential's PCC, a dentry's hash state): not a race, so retrying
   lockless would find it missing again — escalate to the write lock at
   once.  Constant, like [Seq_retry]. *)
exception Need_lock

let real_of d = match d.d_alias with Some real -> real | None -> d

let pcc_valid t pcc d =
  (not t.simulate_pcc_miss) && Pcc.check pcc d

(* Validate a DLHT hit against the PCC: the literal dentry covers the
   literal prefix's permissions, the real dentry the translated one. *)
let validate t pcc literal real =
  if not (pcc_valid t pcc literal) then raise Fall_back;
  if (not (real == literal)) && not (pcc_valid t pcc real) then raise Fall_back

(* --- the lease gate (§3.7) ---

   On a leased (stateful network) file system a cached verdict may be
   served locklessly only while this client holds a live lease on the
   inode that decides it: the final inode (and its containing directory)
   for a positive hit, the containing directory for a cached absence.  A
   dead or missing lease forces the write-locked fallback, whose walk
   revalidates at the server and re-earns the lease — the middle rung of
   the degradation ladder.  [lease_check] is supplied by the netfs client
   and is allocation-free (Hashtbl.find on an int + integer compares), so
   a live-lease warm hit keeps the 0-words/0-locks guarantee.  Local file
   systems carry no [lease_check] and skip all of this on one load. *)

let[@inline] dentry_leased live d =
  match d.d_state with
  | Positive inode -> live (Vfs.Inode.ino inode)
  | Partial { p_ino; _ } -> live p_ino
  | Negative _ -> false

(* §3.8 cache-efficacy attribution: charge [metric] to the directory that
   decided the verdict on [d] — its parent, or [d] itself at an fs root.
   Armed-only (the armed check skips even the parent match disarmed);
   [hh_record] is int/pointer stores into preallocated sketch slots, so
   the zero-allocation warm hit can stay profiled. *)
let[@inline] note_dir metric d =
  if !Profiler.armed then
    match d.d_parent with
    | Some p -> Profiler.hh_record p.d_id p.d_name metric
    | None -> Profiler.hh_record d.d_id d.d_name metric

(* A positive verdict for [final]: its own lease and (when it has a cached
   parent) the containing directory's lease must both be live — the parent
   lease is what makes the name binding trustworthy, AFS-callback style. *)
let gate_positive t final =
  match final.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with
  | None -> ()
  | Some live ->
    if
      (not (dentry_leased live final))
      || (match final.d_parent with
         | None -> false (* the fs root: no containing directory to lease *)
         | Some parent -> not (dentry_leased live parent))
    then begin
      Counter.bump t.c_lease_fallback;
      note_dir Profiler.m_lease final;
      raise Fall_back
    end

(* A cached absence in some directory is only as fresh as that directory's
   lease.  [true] = the verdict is blocked (caller falls back or skips the
   candidate); negatives under an unleased or non-positive parent never
   fast-fail. *)
let lease_blocks_negative t d =
  match d.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with
  | None -> false
  | Some live ->
    let blocked =
      match d.d_parent with None -> true | Some parent -> not (dentry_leased live parent)
    in
    if blocked then begin
      Counter.bump t.c_lease_fallback;
      note_dir Profiler.m_lease d
    end;
    blocked

(* A DIR_COMPLETE absence verdict is decided by directory [dir] itself. *)
let lease_blocks_dir t dir =
  match dir.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with
  | None -> false
  | Some live ->
    let blocked = not (dentry_leased live dir) in
    if blocked then begin
      Counter.bump t.c_lease_fallback;
      if !Profiler.armed then Profiler.hh_record dir.d_id dir.d_name Profiler.m_lease
    end;
    blocked

let dlht_of t ctx =
  let cfg = config t in
  (* The DLHT gets stripes exactly when the dcache did: both tables are
     mutated by the same sharded sections. *)
  let stripes = match t.dtab with Some _ -> cfg.Config.dcache_stripes | None -> 0 in
  Dlht.of_namespace ~stripes ~buckets:cfg.Config.dlht_buckets
    ~grow_load:cfg.Config.dlht_grow_load ctx.Walk.ns

let pcc_of t ctx =
  let cfg = config t in
  Pcc.of_cred ?max_entries:t.pcc_max ctx.Walk.cred ctx.Walk.ns
    ~entries:cfg.Config.pcc_entries

(* --- lockless-probe discipline ---

   A probe with [vsnap >= 0] runs without any lock, validated against
   the dcache write sequence it snapshotted.  Such a probe must be purely
   optimistic: it may read anything (racy single-field reads of immediates
   and pointers cannot tear in OCaml) but must not create subsystem state —
   creation is a mutation, and mutations belong under the lock.  So the
   lockless variants of the accessors below refuse to create (raising
   [Need_lock]: the write-locked resolver runs the creating versions), and
   cached hash states are consumed but never computed ([hstate_of]): a state
   derived from a concurrently-mutated ancestor chain could be garbage, and
   caching garbage would outlive the retry. *)

let dlht_for t ctx vsnap =
  if vsnap < 0 then dlht_of t ctx
  else begin
    match Dlht.of_namespace_exn ctx.Walk.ns with
    | dlht -> dlht
    | exception Not_found -> raise_notrace Need_lock
  end

let pcc_for t ctx vsnap =
  if vsnap < 0 then pcc_of t ctx
  else begin
    match Pcc.of_cred_exn ctx.Walk.cred ctx.Walk.ns with
    | pcc -> pcc
    | exception Not_found -> raise_notrace Need_lock
  end

let hstate_of t vsnap (r : path_ref) =
  if vsnap < 0 then ensure_hstate t r
  else begin
    match r.dentry.d_hstate with Some state -> state | None -> raise_notrace Need_lock
  end

(* --- per-domain probe scratch --- *)

type scratch = {
  ms : Signature.mstate;
  sbuf : Signature.buf;
  (* Prefix-resume state (§3.5).  [snaps] records a hash-state snapshot at
     every component boundary the probe feeds — six int stores per
     component, preallocated once per domain, so the warm hit stays
     allocation-free.  On a miss the snapshots are re-finalized into
     [pbuf] ([sbuf] still holds the full-path digest) for the
     deepest-first ancestor scan.  The three mutable fields carry the
     probe's verdict to the write-locked resolver: which path the
     snapshots describe (physical identity — never read as a string), the
     global invalidation counter observed before any cached state was
     consumed, and the deepest viable ancestor slot (-1: none). *)
  snaps : Signature.snaps;
  pbuf : Signature.buf;
  mutable snap_path : string;
  mutable snap_inval : int;
  mutable resume_slot : int;
  (* The state the scan last resumed from — the probe's start, or the
     parent a Linux-step ".." climbed to — which a lexical ".." that pops
     the first name after it rewinds to. *)
  mutable base_state : Signature.state;
  (* Errno carried by a [Neg_fail] verdict — stashed here so the exception
     itself can stay constant (raising allocates nothing: the fast-fail may
     fire on every probe of a repeatedly missed name). *)
  mutable neg_errno : Errno.t;
  (* Stripe validation (sharded mode).  A lockless probe records every
     stripe seqcount its dentry-field and chain reads depend on — the DLHT
     stripe of each walked bucket, the dcache stripe of each trusted
     dentry's parent, the own-id stripe of each directory whose
     completeness answers for an absent child — and the commit check
     revalidates them all.  Preallocated; the dummy seqcount is never read
     (slots are written before [stripe_n] admits them). *)
  mutable stripe_n : int;
  stripe_seqs : Seqcount.t array;
  stripe_snaps : int array;
  (* Deep-negative promotion (§5.2): the DIR_COMPLETE fast-fail verdict's
     deciding directory and the absent next component's span, stashed so
     the miss handler can publish a negative dentry for it afterwards. *)
  mutable promote_dir : dentry option;
  mutable promote_pos : int;
  mutable promote_len : int;
  (* §3.8 retry attribution: the deciding directory of the most recent
     probe's verdict (set armed-only when the literal is found), so
     [note_lockless_retry] can charge the seqcount retry to the directory
     whose chain the raced writer touched.  -1: no candidate. *)
  mutable hh_id : int;
  mutable hh_name : string;
}

(* Per-domain because fig8-style benchmarks probe concurrently from several
   domains. *)
let stripe_cap = 4096

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        ms = Signature.mstate ();
        sbuf = Signature.buf ();
        snaps = Signature.snaps ~slots:((Path.max_path / 2) + 2);
        pbuf = Signature.buf ();
        snap_path = "";
        snap_inval = -1;
        resume_slot = -1;
        base_state = Signature.empty_state;
        neg_errno = Errno.ENOENT;
        stripe_n = 0;
        stripe_seqs = Array.make stripe_cap (Seqcount.create ());
        stripe_snaps = Array.make stripe_cap 0;
        promote_dir = None;
        promote_pos = 0;
        promote_len = 0;
        hh_id = -1;
        hh_name = "";
      })

(* --- stripe recording (sharded mode) ---

   Unsharded, every helper below is a dead [None] branch — the dcache-wide
   write sequence alone validates the probe.  Sharded, the probe
   records each stripe seqcount before performing the reads that stripe
   guards; [commit_check] then proves the whole read set raced no sharded
   writer, exactly as the dcache-wide write sequence proves it raced no
   exclusive one. *)

(* An odd snapshot means a mutation is in flight on that stripe right now:
   fail fast instead of walking suspect chains.  Overflow (an absurdly deep
   path) degrades to a retry that ends in the authoritative fallback. *)
let[@inline] record_seq sc q =
  let n = sc.stripe_n in
  if n >= stripe_cap then raise_notrace Seq_retry;
  let snap = Seqcount.read_begin q in
  if snap land 1 <> 0 then raise_notrace Seq_retry;
  sc.stripe_seqs.(n) <- q;
  sc.stripe_snaps.(n) <- snap;
  sc.stripe_n <- n + 1

(* The stripe guarding [d]'s own fields (state, seq, alias, target sig):
   its parent directory's stripe — every sharded mutation of a child runs
   under [index tab parent.d_id].  The racy [d_parent] read is safe: a
   racing rename holds {e both} parents' stripes, so whichever parent the
   reader observes, that stripe's seq is bumped by the move.  Roots have
   no parent and are never mutated by sharded sections. *)
let[@inline] record_dentry t sc (d : dentry) =
  match t.dtab with
  | None -> ()
  | Some tab -> (
    match d.d_parent with
    | None -> ()
    | Some p -> record_seq sc (Locktab.seq tab (Locktab.index tab p.d_id)))

(* The stripe guarding directory [d]'s children — its own id's stripe:
   DIR_COMPLETE and child-presence answers are stable only against it. *)
let[@inline] record_dir t sc (d : dentry) =
  match t.dtab with
  | None -> ()
  | Some tab -> record_seq sc (Locktab.seq tab (Locktab.index tab d.d_id))

(* The DLHT stripe guarding the bucket about to be walked. *)
let[@inline] record_chain sc dlht bucket =
  match Dlht.locktab dlht with
  | None -> ()
  | Some tab -> record_seq sc (Locktab.seq tab (Locktab.index tab bucket))

(* Top-level recursion, not a closure over [sc] — the commit check runs on
   the zero-allocation warm path. *)
let rec stripes_ok_from seqs snaps n i =
  i >= n
  || (Seqcount.read_validate seqs.(i) snaps.(i) && stripes_ok_from seqs snaps n (i + 1))

let[@inline] stripes_ok sc = stripes_ok_from sc.stripe_seqs sc.stripe_snaps sc.stripe_n 0

let[@inline] commit_check t sc vsnap =
  if
    vsnap >= 0
    && not (Seqcount.read_validate (Dcache.write_seq t.dcache) vsnap && stripes_ok sc)
  then raise Seq_retry

(* A trailing symlink is followed by one DLHT probe per hop on its cached
   target-path signature (§4.2): replacing any intermediate link refreshes
   that link's own dentry, so the chain can never serve a stale endpoint.
   Symlink targets resolve against the process root, so the shortcut only
   applies to non-chrooted processes ([at_ns_root]).

   Top-level (not a closure inside the probe): the warm path calls this once
   per lookup and must not allocate an environment for it. *)
let rec chase t dlht pcc sc ~follow_last ~at_ns_root d limit =
  if limit = 0 then raise Fall_back
  else begin
    record_dentry t sc d;
    let is_symlink =
      match d.d_state with
      | Positive inode -> File_kind.equal (Vfs.Inode.kind inode) File_kind.Symlink
      | Partial { p_kind; _ } -> File_kind.equal p_kind File_kind.Symlink
      | Negative _ -> false
    in
    if is_symlink && follow_last then begin
      match d.d_alias with
      | Some real when not (real == d) ->
        record_dentry t sc real;
        if not (pcc_valid t pcc real) then raise Fall_back;
        chase t dlht pcc sc ~follow_last ~at_ns_root real (limit - 1)
      | Some _ | None -> (
        if not at_ns_root then raise Fall_back;
        match d.d_target_sig with
        | None -> raise Fall_back
        | Some target_sig -> (
          record_chain sc dlht (Signature.bucket target_sig);
          match Dlht.find dlht ~key:t.key target_sig with
          | None -> raise Fall_back
          | Some next ->
            let real = real_of next in
            record_dentry t sc next;
            if not (real == next) then record_dentry t sc real;
            validate t pcc next real;
            chase t dlht pcc sc ~follow_last ~at_ns_root next (limit - 1)))
    end
    else begin
      match d.d_alias with
      | Some real ->
        record_dentry t sc real;
        if not (pcc_valid t pcc real) then raise Fall_back;
        real
      | None -> d
    end
  end

let at_ns_root ctx =
  ctx.Walk.root.mnt.mnt_mountpoint = None
  && ctx.Walk.root.dentry == ctx.Walk.root.mnt.mnt_root

(* --- in-place probe (allocation-free warm path) ---

   The probe scans the raw path string component by component, feeding
   bytes straight into a preallocated per-domain hash state — no
   [Path.split] list, no intermediate state records, no closures — and
   handles ".." in place under either semantics.  A warm DLHT hit on a
   plain path, or on a lexical path whose ".." only pop names, performs
   zero minor-heap allocation (asserted by test and measured by the
   [alloc] benchmark). *)

(* Raw-string mirror of [Path.split]'s validation, so the scanner never
   discovers a limit violation halfway through a probe: 0 ok, 1 empty path
   (ENOENT), 2 length limit (ENAMETOOLONG).  Tail recursion over ints — no
   refs, no closures (no flambda to unbox them). *)
let rec component_end s len j =
  if j < len && String.unsafe_get s j <> '/' then component_end s len (j + 1) else j

let rec skip_slashes s len i =
  if i < len && String.unsafe_get s i = '/' then skip_slashes s len (i + 1) else i

let rec validate_components path len i =
  if i >= len then 0
  else begin
    let j = component_end path len i in
    if j - i > Path.max_name then 2 else validate_components path len (j + 1)
  end

let validate_raw path =
  let len = String.length path in
  if len = 0 then 1 else if len > Path.max_path then 2 else validate_components path len 0

(* Dot-dot sub-probe against the running in-place state (Linux semantics,
   §4.2: the prefix must resolve to a checked directory).  Allocates a
   [path_ref] for the prefix hop: paths with a Linux-step ".." are not part
   of the zero-allocation guarantee (they were never constant-time
   either). *)
let dotdot_subprobe t dlht pcc sc =
  Signature.finalize_into t.key sc.ms sc.sbuf;
  record_chain sc dlht (Signature.buf_bucket sc.sbuf);
  match Dlht.find_buf dlht ~key:t.key sc.sbuf with
  | None -> raise Fall_back
  | Some literal ->
    let real = real_of literal in
    record_dentry t sc literal;
    if not (real == literal) then record_dentry t sc real;
    validate t pcc literal real;
    if not (dentry_is_dir real) then raise Fall_back;
    (match real.d_mnt with Some mnt -> { mnt; dentry = real } | None -> raise Fall_back)

(* --- prefix-resumed miss handling (§3.5) ---

   The in-place scanner records a hash-state snapshot at every component
   boundary, so when the full-path probe misses we can ask, deepest-first,
   whether any proper ancestor prefix is already cached — and either answer
   the lookup from the prefix alone (negative fast-fail) or mark the
   ancestor as the point to resume the slowpath walk from, instead of
   re-walking from the root. *)

(* Negative fast-fail verdict.  Constant constructor — the errno travels in
   [sc.neg_errno] — so raising allocates nothing: a repeatedly probed absent
   name takes this path on every lookup (no negative dentry is populated by
   a fast-fail) and must stay at zero words per op like any other warm
   verdict. *)
exception Neg_fail

(* PCC validation for prefix candidates: [Pcc.probe] is the read-only
   variant — no hit/miss accounting, no stale-entry drop — safe on the
   lockless tier and statistics-neutral for a scan that expects misses. *)
let pcc_probe t pcc d = (not t.simulate_pcc_miss) && Pcc.probe pcc d

(* First real component of [path] at or after [pos], skipping slashes and
   ["."], as a packed [(start lsl 13) lor end] span ([max_path] = 4096 fits
   in 13 bits) — no [String.sub], no option: the fast-fail scan addresses
   the name in place.  [-1] at end of string or on a [".."] — those the
   walk must handle itself. *)
let rec next_component_span path pos =
  let len = String.length path in
  let i = skip_slashes path len pos in
  if i >= len then -1
  else begin
    let j = component_end path len i in
    if j - i = 1 && String.unsafe_get path i = '.' then next_component_span path j
    else if j - i = 2 && String.unsafe_get path i = '.' && String.unsafe_get path (i + 1) = '.'
    then -1
    else (i lsl 13) lor j
  end

(* Deepest-first scan over the recorded boundary snapshots, run at the
   probe's final-miss site (lockless or write-locked).  The first cached
   ancestor found decides:

   - a cached negative: the whole path fails with its errno — return it
     without the write lock or a walk, exactly as a from-root walk would
     fail at that component (fast-fail is only trusted after the same
     seqcount validation as any other lockless verdict);
   - a DIR_COMPLETE positive directory whose next suffix component is not
     in the dcache: definitive ENOENT (§5.1), same no-lock fast-fail;
   - any other PCC-valid positive directory: the resume candidate — its
     slot is left in [sc.resume_slot] for the resolver to re-validate under
     the write lock, and the probe falls back.

   Candidates that fail PCC validation, are not directories, or carry no
   mount are skipped in favor of shallower ancestors: a shallower resume
   is still correct (the walk rediscovers whatever made the deeper prefix
   unusable — including EACCES on a revoked interior directory, which is
   re-checked per component by the resumed walk itself). *)
(* Top-level recursion (not an inner [let rec] — a closure over seven
   captured variables costs ~10 minor words per miss without flambda; the
   fast-fail verdict must stay at zero). *)
let rec prefix_scan t dlht pcc sc path ~vsnap k =
  if k >= 0 then begin
    let sn = sc.snaps in
    Signature.finalize_snap_into t.key sn k sc.pbuf;
    record_chain sc dlht (Signature.buf_bucket sc.pbuf);
    match Dlht.find_buf dlht ~key:t.key sc.pbuf with
    | None -> prefix_scan t dlht pcc sc path ~vsnap (k - 1)
    | Some literal ->
      let real = real_of literal in
      record_dentry t sc literal;
      if not (real == literal) then record_dentry t sc real;
      if not (pcc_probe t pcc literal && ((real == literal) || pcc_probe t pcc real))
      then prefix_scan t dlht pcc sc path ~vsnap (k - 1)
      else begin
        match literal.d_state with
        | Negative _ when lease_blocks_negative t literal ->
          (* The deciding directory's lease is dead: this cached absence
             cannot fast-fail the path.  A shallower (leased) ancestor may
             still resume or decide it. *)
          prefix_scan t dlht pcc sc path ~vsnap (k - 1)
        | Negative _ when not (Dcache.negative_current literal) ->
          (* A per-mount negative flush outdated this verdict (int compare,
             allocation-free); skip it like any other unusable candidate. *)
          prefix_scan t dlht pcc sc path ~vsnap (k - 1)
        | Negative errno ->
          commit_check t sc vsnap;
          Counter.bump t.c_prefix_negfail;
          Trace.stamp Trace.ev_prefix_negfail (k + 1);
          note_dir Profiler.m_neg literal;
          sc.neg_errno <- errno;
          raise_notrace Neg_fail
        | Positive _ | Partial _ ->
          if dentry_is_dir real && (match real.d_mnt with Some _ -> true | None -> false)
          then begin
            (* A DIR_COMPLETE absence verdict needs the directory's own
               lease live (§3.7); a dead lease only forfeits the fast-fail
               — the directory still serves as a resume candidate, since
               the resumed walk revalidates at the server. *)
            (if Dcache.is_complete t.dcache real && not (lease_blocks_dir t real) then begin
               (* Completeness and child-presence are guarded by the
                  directory's own-id stripe, not its parent's. *)
               record_dir t sc real;
               let span = next_component_span path (Signature.snaps_cursor sn k) in
               if span >= 0 then begin
                 let pos = span lsr 13 in
                 let len = (span land 0x1fff) - pos in
                 if not (Dcache.contains_child t.dcache real path ~pos ~len) then begin
                   commit_check t sc vsnap;
                   Counter.bump t.c_prefix_negfail;
                   Trace.stamp Trace.ev_prefix_negfail (k + 1);
                   if !Profiler.armed then
                     Profiler.hh_record real.d_id real.d_name Profiler.m_neg;
                   sc.neg_errno <- Errno.ENOENT;
                   (* §5.2 promotion: remember the deciding directory and
                      the absent component so the miss handler can publish
                      a deep negative dentry for it (the one allocation —
                      the [Some] — happens only on a promotable verdict;
                      once promoted, later probes are warm negative hits
                      and never reach this point). *)
                   if (config t).Config.deep_negative then begin
                     sc.promote_dir <- Some real;
                     sc.promote_pos <- pos;
                     sc.promote_len <- len
                   end;
                   raise_notrace Neg_fail
                 end
               end
             end);
            sc.resume_slot <- k
          end
          else prefix_scan t dlht pcc sc path ~vsnap (k - 1)
      end
  end

let prefix_miss t dlht pcc sc path ~vsnap =
  if (config t).Config.prefix_resume then
    (* Slot [n-1] is the full path — the probe that just missed. *)
    prefix_scan t dlht pcc sc path ~vsnap (Signature.snaps_count sc.snaps - 2);
  raise Fall_back

(* Scan-and-hash driver for the in-place probe; on each "..":
   - Plan 9 lexical semantics, after a name fed since the last base: pop
     that name's boundary snapshot and resume hashing from the state before
     it — ".." is simply removed before hashing (§4.2).  The surviving
     slot's cursor moves past the "..", so prefix resume and the
     DIR_COMPLETE fast-fail never see the dropped name.  A lexical ".."
     either pops or finds nothing since the last base, so any recorded
     boundary is one fed since it;
   - otherwise (Linux semantics, or nothing to pop): sub-probe the prefix
     walked so far, step up, resume hashing from the parent's cached state,
     the new base.
   Top-level recursion, not a loop over refs, for the usual no-flambda
   reason.  Every fed component leaves a boundary snapshot in [sc.snaps]
   for the miss handler — including across Linux-step hops: post-resume
   states are still canonical-prefix states and their cursors still
   delimit the remaining suffix, so resuming from any recorded slot
   replays exactly what a from-scratch walk would do. *)
let rec scan_and_hash t ctx dlht pcc sc path pos vsnap =
  let rc =
    Signature.hash_path_into_rec t.key sc.ms sc.snaps ~max_name:Path.max_name path ~pos
  in
  if rc = Signature.scan_done then ()
  else if rc = Signature.scan_toolong then raise Fall_back (* pre-validated; defensive *)
  else begin
    if (config t).Config.dotdot = Config.Dotdot_lexical && Signature.snaps_count sc.snaps > 0
    then begin
      if Signature.snaps_overflowed sc.snaps then raise Fall_back;
      Signature.snaps_pop sc.snaps sc.ms ~base:sc.base_state ~cursor:rc
    end
    else begin
      Counter.bump t.c_dotdot;
      let prefix = dotdot_subprobe t dlht pcc sc in
      sc.base_state <- hstate_of t vsnap (Walk.follow_dotdot ctx prefix);
      Signature.mstate_resume sc.ms sc.base_state
    end;
    scan_and_hash t ctx dlht pcc sc path rc vsnap
  end

(* [vsnap >= 0]: optimistic mode — no lock held, [vsnap] is the write-
   sequence snapshot to validate against at every commit point (just before
   an error, a success, or [within] — which has caller side effects and
   must run at most once on state that provably raced no writer).
   [vsnap < 0]: the write lock is held, no validation needed, and missing
   state is created. *)
let probe_into t ctx ~(start : path_ref) ~(flags : Walk.flags) sc path ~within ~vsnap =
  let dlht = dlht_for t ctx vsnap in
  let pcc = pcc_for t ctx vsnap in
  let absolute = Path.is_absolute path in
  let trailing_slash = Path.has_trailing_slash path in
  let t0 = Phases.stamp () in
  let base = if absolute then ctx.Walk.root else start in
  (* Prefix-resume bookkeeping: the invalidation counter must be read
     before any cached state (hash states, table entries) is consumed, so
     that an unchanged counter at resume time proves the snapshots raced no
     shootdown (§3.2, §3.5).  Plain int/pointer stores — no allocation. *)
  sc.snap_path <- path;
  sc.snap_inval <- Dcache.invalidation_counter t.dcache;
  sc.resume_slot <- -1;
  sc.stripe_n <- 0;
  sc.promote_dir <- None;
  sc.hh_id <- -1;
  Signature.snaps_reset sc.snaps;
  sc.base_state <- hstate_of t vsnap base;
  Signature.mstate_resume sc.ms sc.base_state;
  Phases.record_span Phases.Init t0;
  let t1 = Phases.stamp () in
  scan_and_hash t ctx dlht pcc sc path 0 vsnap;
  Signature.finalize_into t.key sc.ms sc.sbuf;
  Phases.record_span Phases.Scan_hash t1;
  let t2 = Phases.stamp () in
  record_chain sc dlht (Signature.buf_bucket sc.sbuf);
  let literal =
    match Dlht.find_buf dlht ~key:t.key sc.sbuf with
    | Some d -> d
    | None ->
      commit_check t sc vsnap;
      Trace.bump_cause Trace.cause_cold;
      (* Genuine miss: scan the boundary snapshots for the longest cached
         ancestor — fast-fail from the prefix or mark the resume point —
         then fall back (§3.5).  Never returns. *)
      prefix_miss t dlht pcc sc path ~vsnap
  in
  Phases.record_span Phases.Table_lookup t2;
  let t3 = Phases.stamp () in
  let shallow_real = real_of literal in
  record_dentry t sc literal;
  if not (shallow_real == literal) then record_dentry t sc shallow_real;
  (* Stash the verdict's deciding directory for retry attribution (§3.8):
     a seqcount retry aborts the probe before any per-directory metric is
     charged, so the retry handler needs the candidate remembered here. *)
  if !Profiler.armed then begin
    match literal.d_parent with
    | Some p ->
      sc.hh_id <- p.d_id;
      sc.hh_name <- p.d_name
    | None ->
      sc.hh_id <- literal.d_id;
      sc.hh_name <- literal.d_name
  end;
  validate t pcc literal shallow_real;
  Phases.record_span Phases.Permission t3;
  let t4 = Phases.stamp () in
  let at_root = at_ns_root ctx in
  let result =
    match literal.d_state with
    | Negative errno ->
      if lease_blocks_negative t literal then raise Fall_back;
      if not (Dcache.negative_current literal) then raise Fall_back;
      commit_check t sc vsnap;
      Counter.bump t.c_neg;
      Trace.stamp Trace.ev_fast_neg 0;
      note_dir Profiler.m_neg literal;
      Errno.to_error errno
    | Positive _ | Partial _ -> (
      let final =
        chase t dlht pcc sc ~follow_last:flags.Walk.follow_last ~at_ns_root:at_root
          literal 8
      in
      match final.d_state with
      | Negative errno ->
        if lease_blocks_negative t final then raise Fall_back;
        if not (Dcache.negative_current final) then raise Fall_back;
        commit_check t sc vsnap;
        Counter.bump t.c_neg;
        Trace.stamp Trace.ev_fast_neg 0;
        note_dir Profiler.m_neg final;
        Errno.to_error errno
      | Partial _ -> raise Fall_back
      | Positive _ ->
        if (flags.Walk.must_dir || trailing_slash) && not (dentry_is_dir final) then begin
          gate_positive t final;
          commit_check t sc vsnap;
          Errno.to_error Errno.ENOTDIR
        end
        else begin
          match final.d_mnt with
          | None -> raise Fall_back
          | Some mnt ->
            gate_positive t final;
            commit_check t sc vsnap;
            final.d_last_used <- Dcache.new_tick t.dcache;
            note_dir Profiler.m_hit final;
            within mnt final
        end)
  in
  Phases.record_span Phases.Finalize t4;
  result

(* --- population (§3.1, §3.2) --- *)

(* Canonical signature of a symlink's target path: absolute targets resolve
   from the namespace root, relative targets from the link's own directory.
   Targets containing "." or ".." are left to the slowpath. *)
let target_signature t (r : path_ref) d inode =
  (* Only links whose body a previous (followed) resolution already read:
     population must never trigger file system calls of its own. *)
  match Vfs.Inode.cached_symlink_target inode with
  | None -> None
  | Some target -> (
    match Path.split target with
    | Error _ -> None
    | Ok comps ->
      let plain =
        List.for_all (function Path.Name _ -> true | Path.Cur | Path.Up -> false) comps
      in
      if not plain then None
      else begin
        let base =
          if Path.is_absolute target then ensure_hstate t (Vfs.Mount.root r.mnt.mnt_ns)
          else begin
            match d.d_parent with
            | Some parent -> ensure_hstate t { r with dentry = parent }
            | None -> Signature.empty_state
          end
        in
        let state =
          List.fold_left
            (fun st comp ->
              match comp with
              | Path.Name name ->
                Signature.feed_string t.key (Signature.feed_char t.key st '/') name
              | Path.Cur | Path.Up -> st)
            base comps
        in
        Some (Signature.finalize t.key state)
      end)

let populate t ctx ~visited ~absolute ~start =
  match visited with
  | [] -> ()
  | _ :: _ ->
    let ns = ctx.Walk.ns in
    let dlht = dlht_of t ctx in
    let pcc = pcc_of t ctx in
    (* Directory-reference rule (§3.2): results of a relative walk may rely
       on an open directory reference whose ancestors are no longer
       searchable; only cache prefix checks when the starting directory's
       own prefix check is still known-good. *)
    let allow_pcc =
      absolute || pcc_valid t pcc (real_of start.dentry)
    in
    List.iter
      (fun (r : path_ref) ->
        let d = r.dentry in
        (* Dentries of a revalidating (stateless network) file system can
           never be trusted without a server round trip, so they are not
           published for direct lookup at all (§4.3).  A {e leased}
           (stateful) file system also revalidates — but only as its
           lease-recovery path: its dentries are published, and the probe's
           lease gate decides per hit whether the lockless verdict stands
           (§3.7). *)
        if
          d.d_sb.sb_fs.Dcache_fs.Fs_intf.revalidate <> None
          && d.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check = None
        then ()
        else begin
        (* Mount aliases (§4.3): a dentry is indexed under one path at a
           time; reaching it under a different mount re-signatures it and
           bumps its version in case the alias prefixes differ. *)
        (match d.d_mnt with
        | Some m when not (m == r.mnt) ->
          Dlht.remove d;
          d.d_hstate <- None;
          d.d_sig <- None;
          d.d_mnt <- Some r.mnt;
          Dcache.bump_seq d;
          Counter.bump t.c_alias_resig
        | Some _ | None -> ());
        let state = ensure_hstate t r in
        let signature =
          match d.d_sig with
          | Some s -> s
          | None ->
            let s = Signature.finalize t.key state in
            d.d_sig <- Some s;
            s
        in
        d.d_mnt <- Some r.mnt;
        (* The dentries an alias redirects to must carry a mount and a PCC
           entry too, or the probe could never finish on them. *)
        let publish_target target =
          if target.d_mnt = None then target.d_mnt <- Some r.mnt;
          if allow_pcc && not t.simulate_pcc_miss then Pcc.insert pcc target
        in
        (match d.d_alias with Some real -> publish_target real | None -> ());
        (* Symlink dentries carry the signature of their target path so the
           probe can follow a trailing link (§4.2). *)
        (match (d.d_target_sig, d.d_state) with
        | None, Positive inode
          when File_kind.equal (Vfs.Inode.kind inode) File_kind.Symlink ->
          d.d_target_sig <- target_signature t r d inode
        | _ -> ());
        if not (d.d_dlht_ns == Some ns && d.d_sig = Some signature) then
          Dlht.insert dlht ns d signature;
        if allow_pcc && not t.simulate_pcc_miss then Pcc.insert pcc d
        end)
      visited;
    Counter.bump_by t.c_populated (List.length visited);
    (* Sharded mode defers DLHT migration/growth out of the per-splice path
       (a stripe section must stay within its stripe); populate, always
       write-locked, is where the table catches up. *)
    if Dcache.sharded t.dcache then Dlht.housekeep dlht

(* Publish the deep negative dentry a DIR_COMPLETE fast-fail verdict
   promised (§5.2): the fast-fail answered ENOENT from the completeness of
   a cached directory, so the absent child's name can be cached as a
   negative dentry — and signed into the DLHT — turning every later lookup
   of that path into a warm negative hit instead of a prefix scan.  The
   verdict was an unlocked snapshot; everything it relied on is
   re-established under the write lock before anything is published (a
   complete directory with no cached child of the name definitively has no
   such child, §5.1).  Runs under the write lock. *)
let promote_negfail_in t ctx dir name =
  if
    dir.d_hashed && dentry_is_dir dir
    && Dcache.is_complete t.dcache dir
    && Dcache.lookup t.dcache dir name = None
  then begin
    match Dcache.add_child t.dcache dir name (Negative Errno.ENOENT) with
    | Error _ -> ()
    | Ok child -> (
      Counter.bump t.c_negfail_promoted;
      (* Sign and publish for direct lookup when the parent's own
         canonical state is available; otherwise the plain negative
         dentry still serves walks and later fast-fails. *)
      match (dir.d_hstate, dir.d_mnt) with
      | Some state, Some mnt ->
        let st =
          Signature.feed_string t.key (Signature.feed_char t.key state '/') name
        in
        let s = Signature.finalize t.key st in
        child.d_hstate <- Some st;
        child.d_sig <- Some s;
        child.d_mnt <- Some mnt;
        (match Dlht.of_namespace_opt ctx.Walk.ns with
        | Some dlht -> Dlht.insert dlht ctx.Walk.ns child s
        | None -> ())
      | _ -> ())
  end

(* [locked]: the caller (the write-locked resolver) already holds the
   write lock; otherwise — a lockless fast-fail — it is taken here. *)
let promote_negfail t ctx sc path ~locked =
  match sc.promote_dir with
  | None -> ()
  | Some dir ->
    sc.promote_dir <- None;
    let pos = sc.promote_pos and len = sc.promote_len in
    if sc.snap_path == path && pos >= 0 && len > 0 && pos + len <= String.length path
    then begin
      let name = String.sub path pos len in
      if locked then promote_negfail_in t ctx dir name
      else Dcache.with_write t.dcache (fun () -> promote_negfail_in t ctx dir name)
    end

(* --- the public lookup --- *)

(* Re-derive and re-validate the probe's resume candidate under the write
   lock (§3.5).  The lockless scan only *suggested* a slot; everything it
   read is re-checked here where it is authoritative: the ancestor must
   still be in the DLHT under the snapshot's signature, PCC-valid for this
   cred, a positive directory with a mount — and, before any of that is
   even consulted, the global invalidation counter must equal the value
   snapshotted before the probe consumed any cached state.  A rename or
   chmod between snapshot and resume bumps that counter (§3.2), forcing
   the from-scratch walk; a revoked search permission *above* the ancestor
   bumps the ancestor's seq, so the PCC re-check fails; a revoked
   permission on the ancestor itself (or below) is re-checked per
   component by the resumed walk.  Revocation can therefore never be
   walked past. *)
let resume_plan t ctx sc path =
  if (not (config t).Config.prefix_resume)
     || sc.resume_slot < 0
     || not (sc.snap_path == path)
  then None
  else if Dcache.invalidation_counter t.dcache <> sc.snap_inval then begin
    Counter.bump t.c_prefix_stale;
    None
  end
  else begin
    let k = sc.resume_slot in
    Signature.finalize_snap_into t.key sc.snaps k sc.pbuf;
    let dlht = dlht_of t ctx in
    let pcc = pcc_of t ctx in
    match Dlht.find_buf dlht ~key:t.key sc.pbuf with
    | None ->
      Counter.bump t.c_prefix_stale;
      None
    | Some literal -> (
      let real = real_of literal in
      if
        not
          (pcc_valid t pcc literal
          && ((real == literal) || pcc_valid t pcc real)
          && dentry_is_dir real)
      then begin
        Counter.bump t.c_prefix_stale;
        None
      end
      else begin
        match real.d_mnt with
        | None ->
          Counter.bump t.c_prefix_stale;
          None
        | Some mnt ->
          let ancestor = Vfs.Mount.traverse_mounts { mnt; dentry = real } in
          let cursor = Signature.snaps_cursor sc.snaps k in
          let suffix = String.sub path cursor (String.length path - cursor) in
          Some (ancestor, k + 1, suffix)
      end)
  end


(* --- the write-locked resolver (§3.2, §3.5, §3.9) ---

   Every lookup the lockless window cannot answer ends here, under the
   write lock: sequential escalations one op at a time, batch phase 2 a
   sorted group per acquisition.  Each op re-probes with state creation
   (unless it is a validated miss and nothing has walked since — the
   probe's verdict and its resume scratch still stand), then resolves by
   walking: from the re-validated resume candidate when the probe left
   one — by a single {!Walk.resume_sibling} step when the uncached suffix
   is one plain name — else from the root or start.  Walk results
   repopulate the DLHT and PCC only if no shootdown ran meanwhile (§3.2;
   under the write lock the check never fires, but it documents and
   preserves the protocol). *)

let note_resume t depth =
  Counter.bump t.c_prefix_resume;
  Trace.stamp Trace.ev_prefix_resume depth;
  Trace.record_resume_depth depth

let publish t ctx ~inval ~visited ~absolute ~start =
  if Dcache.invalidation_counter t.dcache = inval then populate t ctx ~visited ~absolute ~start

let walk_and_publish t ctx ~flags ~absolute ~start ~plan path ~within =
  let inval = Dcache.invalidation_counter t.dcache in
  (* The walk collects, so the suffix prefixes are published and the next
     miss lands one component deeper. *)
  let flags = { flags with Walk.collect = true } in
  let result, start, absolute =
    match plan with
    | Some (ancestor, depth, suffix) ->
      note_resume t depth;
      (Walk.resolve_resumed t.dcache ctx ~flags ~start_at:ancestor suffix, ancestor, false)
    | None -> (Walk.resolve_in_mode Walk.Ref t.dcache ctx ~flags path, start, absolute)
  in
  (* §3.2 extended to I/O failures: a walk that died on a transient EIO
     says nothing trustworthy about the tree — the visited prefix may
     describe state the device no longer backs — so publish nothing and
     let a later, healthy walk repopulate. *)
  (match result.Walk.outcome with
  | Error Errno.EIO -> Counter.bump t.c_eio_no_populate
  | Ok _ | Error _ -> publish t ctx ~inval ~visited:result.Walk.visited ~absolute ~start);
  match result.Walk.outcome with Ok r -> within r.mnt r.dentry | Error e -> Error e

(* The resume suffix's name when it is a single plain component ending the
   path — the dominant batched shape once a group's first miss has walked
   the shared prefix.  Shapes like "leaf/." or "leaf/" constrain the leaf's
   kind and take the full walk. *)
let sibling_name flags path suffix =
  let span = next_component_span suffix 0 in
  if flags.Walk.must_dir || Path.has_trailing_slash path || span < 0
     || span land 0x1fff <> String.length suffix
  then None
  else Some (String.sub suffix (span lsr 13) ((span land 0x1fff) - (span lsr 13)))

let slowpath t ctx ~flags ~start sc path ~within =
  let ctx = if ctx.Walk.cwd == start then ctx else { ctx with Walk.cwd = start } in
  let absolute = Path.is_absolute path in
  let plan = resume_plan t ctx sc path in
  match plan with
  | None -> walk_and_publish t ctx ~flags ~absolute ~start ~plan path ~within
  | Some (ancestor, depth, suffix) -> (
    match sibling_name flags path suffix with
    | None -> walk_and_publish t ctx ~flags ~absolute ~start ~plan path ~within
    | Some name -> (
      let inval = Dcache.invalidation_counter t.dcache in
      match
        Walk.resume_sibling t.dcache ctx ~start_at:ancestor ~follow:flags.Walk.follow_last name
      with
      | `Bail ->
        (* Trailing symlink to follow: splicing is the walk's business. *)
        walk_and_publish t ctx ~flags ~absolute ~start ~plan path ~within
      | `Err e ->
        note_resume t depth;
        Error e
      | `Neg (child, errno) ->
        note_resume t depth;
        publish t ctx ~inval ~visited:[ { ancestor with dentry = child } ] ~absolute:false
          ~start:ancestor;
        Error errno
      | `Child cref ->
        note_resume t depth;
        publish t ctx ~inval ~visited:[ cref ] ~absolute:false ~start:ancestor;
        within cref.mnt cref.dentry))

(* One op under the write lock.  [reprobe] is false only for a validated
   sequential miss: its lockless verdict and scratch are still good. *)
let resolve_locked t ctx ~start ~flags sc path ~within ~reprobe =
  match
    if reprobe then probe_into t ctx ~start ~flags sc path ~within ~vsnap:(-1)
    else raise_notrace Fall_back
  with
  | result ->
    (* Created state, or an earlier op of the group populated the path. *)
    Counter.bump t.c_hit;
    Trace.stamp Trace.ev_fast_hit 0;
    result
  | exception Neg_fail ->
    promote_negfail t ctx sc path ~locked:true;
    Errno.to_error sc.neg_errno
  | exception (Fall_back | Seq_retry) ->
    (* [Seq_retry] here is only stripe-recording overflow on an absurdly
       deep path — no stripe section runs beside the write lock. *)
    Counter.bump t.c_fallback;
    Trace.stamp Trace.ev_fallback 0;
    slowpath t ctx ~flags ~start sc path ~within

(* --- the lockless window (§3.2, mirroring RCU-walk → ref-walk) --- *)

(* Attribute a lockless retry: if the namespace's DLHT is mid-resize, the
   write section we raced was (at least plausibly) the migration.  §3.8:
   also charge the retry to the raced probe's deciding directory when the
   probe got far enough to stash one. *)
let note_lockless_retry t ctx sc =
  Counter.bump t.c_lockless_retry;
  Trace.stamp Trace.ev_lockless_retry 0;
  if !Profiler.armed && sc.hh_id >= 0 then
    Profiler.hh_record sc.hh_id sc.hh_name Profiler.m_retry;
  match Dlht.of_namespace_opt ctx.Walk.ns with
  | Some dlht when Dlht.resizing dlht -> Trace.bump_cause Trace.cause_resize_retry
  | Some _ | None -> Trace.bump_cause Trace.cause_seqcount_retry

(* A raced probe is retried lockless: the read lock would not exclude
   sharded writers (they hold its read side), and a raced write section is
   a few dozen instructions, so the race is gone almost immediately.  After
   this many attempts (a writer storm) the op escalates to the write-locked
   resolver, which excludes writers of both kinds. *)
let max_sharded_attempts = 8

(* One op's lockless attempt under the write-sequence snapshot [snap],
   shared by the sequential loop and the batch window.  A committed
   verdict is returned (a hit, or a cached negative); anything else leaves
   classified:
   - [Neg_fail]: a validated prefix fast-fail, errno in [sc.neg_errno];
   - [Fall_back]: a believed miss — the snapshot and every recorded stripe
     still validate, so "not cached" is trustworthy;
   - [Seq_retry]: a race — the probe read state a writer was changing;
   - [Need_lock]: state the lockless probe may not create. *)
let probe_step t ctx ~start ~flags sc path ~within seq snap =
  match probe_into t ctx ~start ~flags sc path ~within ~vsnap:snap with
  | result ->
    Counter.bump t.c_hit;
    Trace.stamp Trace.ev_fast_hit 0;
    result
  | exception Fall_back ->
    if Seqcount.read_validate seq snap && stripes_ok sc then raise_notrace Fall_back
    else raise_notrace Seq_retry

(* Escalation without a believed miss — state to create, or retries
   exhausted — is counted as a write-locked ("locked") probe. *)
let escalate t ctx ~start ~flags sc path ~within ~reprobe =
  if reprobe then Counter.bump t.c_locked_probe;
  Dcache.with_write t.dcache (fun () ->
      resolve_locked t ctx ~start ~flags sc path ~within ~reprobe)

let rec lookup_lockless t ctx ~start ~flags sc path ~within ~attempt =
  let seq = Dcache.write_seq t.dcache in
  let snap = Seqcount.read_begin seq in
  (* An odd snapshot: a writer is mid-section right now (not counted). *)
  if snap land 1 <> 0 then retry_lockless t ctx ~start ~flags sc path ~within ~attempt
  else begin
    match probe_step t ctx ~start ~flags sc path ~within seq snap with
    | result -> result
    | exception Neg_fail ->
      (* Prefix fast-fail (§3.5): validated inside the probe, so as good
         as a hit — answered without a lock or a walk. *)
      promote_negfail t ctx sc path ~locked:false;
      Errno.to_error sc.neg_errno
    | exception Fall_back -> escalate t ctx ~start ~flags sc path ~within ~reprobe:false
    | exception Need_lock -> escalate t ctx ~start ~flags sc path ~within ~reprobe:true
    | exception Seq_retry ->
      note_lockless_retry t ctx sc;
      retry_lockless t ctx ~start ~flags sc path ~within ~attempt
  end

and retry_lockless t ctx ~start ~flags sc path ~within ~attempt =
  if attempt + 1 >= max_sharded_attempts then
    escalate t ctx ~start ~flags sc path ~within ~reprobe:true
  else begin
    Domain.cpu_relax ();
    lookup_lockless t ctx ~start ~flags sc path ~within ~attempt:(attempt + 1)
  end

(* [within] runs on the resolved (mount, dentry) while the lookup is still
   protected (lockless-validated on a fastpath hit, write side in the
   resolver), so callers can pin dentries or check permissions without a
   race against eviction.  This is the allocation-free entry point: a warm
   DLHT hit builds no [path_ref], no closure and no option — the only
   allocation is whatever [within] itself does. *)
let lookup_into_raw t ctx ?start ?(flags = Walk.default_flags) path ~within =
  let start = match start with Some s -> s | None -> ctx.Walk.cwd in
  if not (config t).Config.fastpath then begin
    (* Baseline kernel: component-at-a-time only.  *at()-style lookups
       resolve relative to [start]; the slowpath reads the origin from the
       context's cwd. *)
    let ctx = { ctx with Walk.cwd = start } in
    match
      Dcache.with_read t.dcache (fun () ->
          match (Walk.resolve_in_mode Walk.Rcu t.dcache ctx ~flags path).Walk.outcome with
          | Ok r -> within r.mnt r.dentry
          | Error e -> Error e)
    with
    | result -> result
    | exception Walk.Need_refwalk ->
      Counter.bump t.c_refwalk;
      Trace.bump_cause Trace.cause_seqcount_retry;
      Trace.stamp Trace.ev_refwalk 0;
      Dcache.with_write t.dcache (fun () ->
          match (Walk.resolve_in_mode Walk.Ref t.dcache ctx ~flags path).Walk.outcome with
          | Ok r -> within r.mnt r.dentry
          | Error e -> Error e)
  end
  else begin
    match validate_raw path with
    | 1 -> Errno.to_error Errno.ENOENT
    | 2 -> Errno.to_error Errno.ENAMETOOLONG
    | _ ->
      lookup_lockless t ctx ~start ~flags (Domain.DLS.get scratch_key) path ~within ~attempt:0
  end

(* Latency attribution (Trace timing mode): every public lookup is timed
   with the monotonic ns clock and recorded into the histogram of its
   outcome class.  Classification works backwards from what is observable
   after the fact: an EIO is its own class (I/O failure, never cached); any
   other error is a negative; a success on a fastpath-less configuration is
   the slowpath; a success that bumped the fallback counter went
   probe-miss-then-slowpath; the rest are fastpath hits.  Disarmed, the
   wrapper is one load-and-branch — the warm path stays allocation-free. *)
let lookup_into t ctx ?start ?flags path ~within =
  if not !Trace.timing then lookup_into_raw t ctx ?start ?flags path ~within
  else begin
    let fallbacks_before = Counter.cell_value t.c_fallback in
    let t0 = Clock.monotonic_ns () in
    let result = lookup_into_raw t ctx ?start ?flags path ~within in
    let dt = Clock.monotonic_ns () - t0 in
    let cls =
      match result with
      | Error Errno.EIO -> Trace.cls_eio
      | Error _ -> Trace.cls_negative
      | Ok _ ->
        if not (config t).Config.fastpath then Trace.cls_slowpath
        else if Counter.cell_value t.c_fallback > fallbacks_before then Trace.cls_fallback
        else Trace.cls_fast
    in
    Trace.record_latency cls dt;
    result
  end

(* --- vectored probes (§3.9) ---

   Phase 1 runs every queued op through {!probe_step} under ONE shared
   validation window: a single [Seqcount.read_begin] snapshot serves the
   whole run, and each op's commit check validates that shared snapshot
   plus its own recorded stripes.  This is strictly stronger than the
   sequential per-op window — the shared snapshot is older than any per-op
   one would be — so every interleaving accepted here would also be
   accepted by the same ops issued back to back.  A raced op splits the
   batch ("fastpath_batch_split"): it re-snapshots and the run continues
   under the new window, bounded by [max_sharded_attempts] consecutive
   splits per op before the op is deferred to phase 2 (writer storm).
   Misses never walk in phase 1; they collect into [deferred], as do ops
   that need state created ([Need_lock]).

   The loop state (windows opened, deferred count, split spins) threads
   through top-level recursions and returns packed as
   [(windows lsl 20) lor ndef] — not a tuple, not refs: phase 1 is part
   of the zero-allocation warm path, asserted per batch by [t_alloc]. *)

let rec batch_run t ctx sc path flags prepare within complete deferred n i ndef windows
    spins =
  if i >= n then (windows lsl 20) lor ndef
  else begin
    let seq = Dcache.write_seq t.dcache in
    let snap = Seqcount.read_begin seq in
    if snap land 1 <> 0 then
      (* A writer is mid-section right now; brief by construction. *)
      batch_retry t ctx sc path flags prepare within complete deferred n i ndef windows spins
    else
      batch_window t ctx sc path flags prepare within complete deferred n i ndef
        (windows + 1) spins seq snap
  end

and batch_window t ctx sc path flags prepare within complete deferred n i ndef windows
    spins seq snap =
  if i >= n then (windows lsl 20) lor ndef
  else begin
    prepare i;
    let p = path i in
    let vr = validate_raw p in
    if vr <> 0 then begin
      complete i (Errno.to_error (if vr = 1 then Errno.ENOENT else Errno.ENAMETOOLONG));
      batch_window t ctx sc path flags prepare within complete deferred n (i + 1) ndef
        windows 0 seq snap
    end
    else begin
      match probe_step t ctx ~start:ctx.Walk.cwd ~flags:(flags i) sc p ~within seq snap with
      | r ->
        complete i r;
        batch_window t ctx sc path flags prepare within complete deferred n (i + 1) ndef
          windows 0 seq snap
      | exception Neg_fail ->
        (* A promotable verdict takes the write lock to publish the deep
           negative, which bumps the sequence this window snapshotted:
           reopen the window (not counted as a split — self-inflicted). *)
        let reopen = match sc.promote_dir with Some _ -> true | None -> false in
        promote_negfail t ctx sc p ~locked:false;
        complete i (Errno.to_error sc.neg_errno);
        if reopen then
          batch_run t ctx sc path flags prepare within complete deferred n (i + 1) ndef
            windows 0
        else
          batch_window t ctx sc path flags prepare within complete deferred n (i + 1) ndef
            windows 0 seq snap
      | exception (Fall_back | Need_lock as e) ->
        (* Keep the window: the probe mutated nothing, and later ops
           validate against the same snapshot. *)
        if e == Need_lock then Counter.bump t.c_locked_probe;
        deferred.(ndef) <- i;
        batch_window t ctx sc path flags prepare within complete deferred n (i + 1)
          (ndef + 1) windows 0 seq snap
      | exception Seq_retry ->
        note_lockless_retry t ctx sc;
        Counter.bump t.c_batch_split;
        Trace.stamp Trace.ev_batch_split i;
        batch_retry t ctx sc path flags prepare within complete deferred n i ndef windows
          spins
    end
  end

and batch_retry t ctx sc path flags prepare within complete deferred n i ndef windows spins =
  if spins + 1 >= max_sharded_attempts then begin
    Counter.bump t.c_locked_probe;
    deferred.(ndef) <- i;
    batch_run t ctx sc path flags prepare within complete deferred n (i + 1) (ndef + 1)
      windows 0
  end
  else begin
    Domain.cpu_relax ();
    batch_run t ctx sc path flags prepare within complete deferred n i ndef windows
      (spins + 1)
  end

(* Phase 2: the deferred ops, sorted by path so ops sharing ancestors run
   adjacently — the group's first miss walks (and populates) the shared
   prefix, the rest re-probe or resume from it, most via the single-step
   sibling shortcut — under ONE write-lock acquisition.  Every op
   re-probes: the scratch holds the last phase-1 probe, not this op's.
   Misses allocate anyway (walks build lists); no packing games here. *)
let batch_slowpath t ctx sc path flags prepare within complete deferred ndef =
  (* Insertion sort of the index slice: batches are small, and adjacency
     by path prefix is all the grouping needs. *)
  for k = 1 to ndef - 1 do
    let v = deferred.(k) in
    let pv = path v in
    let j = ref (k - 1) in
    while !j >= 0 && String.compare (path deferred.(!j)) pv > 0 do
      deferred.(!j + 1) <- deferred.(!j);
      decr j
    done;
    deferred.(!j + 1) <- v
  done;
  Counter.bump_by t.c_batch_deferred ndef;
  Dcache.with_write t.dcache (fun () ->
      for k = 0 to ndef - 1 do
        let i = deferred.(k) in
        prepare i;
        complete i
          (resolve_locked t ctx ~start:ctx.Walk.cwd ~flags:(flags i) sc (path i) ~within
             ~reprobe:true)
      done)

(* The public batched entry (§3.9).  [path]/[flags]/[prepare]/[complete]
   are indexed accessors the caller allocates once per ring — not per
   submit — and [deferred] is caller-owned scratch of length >= [n]; ops
   resolve relative to the context's cwd, like the sequential default.
   The baseline configuration degrades to per-op sequential lookups so the
   API is uniformly available.  Reports span/window amortization to
   {!Profiler.note_batch}. *)
let probe_batch t ctx ~n ~path ~flags ~prepare ~within ~complete ~deferred =
  if not (config t).Config.fastpath then begin
    for i = 0 to n - 1 do
      prepare i;
      complete i (lookup_into_raw t ctx ~flags:(flags i) (path i) ~within)
    done;
    Profiler.note_batch ~ops:n ~windows:n
  end
  else begin
    let sc = Domain.DLS.get scratch_key in
    let packed = batch_run t ctx sc path flags prepare within complete deferred n 0 0 0 0 in
    let windows = packed lsr 20 in
    let ndef = packed land 0xfffff in
    if ndef > 0 then batch_slowpath t ctx sc path flags prepare within complete deferred ndef;
    Profiler.note_batch ~ops:n ~windows
  end
