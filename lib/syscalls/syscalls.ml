open Dcache_types
open Dcache_vfs.Types
module Vfs = Dcache_vfs
module Dcache = Vfs.Dcache
module Walk = Vfs.Walk
module Mount = Vfs.Mount
module Inode = Vfs.Inode
module Config = Vfs.Config
module Lsm = Dcache_cred.Lsm
module Cred = Dcache_cred.Cred
module Fastpath = Dcache_core.Fastpath
module Fs = Dcache_fs.Fs_intf
module Counter = Dcache_util.Stats.Counter
module Rwlock = Dcache_util.Rwlock
module Locktab = Dcache_util.Locktab
module Dlist = Dcache_util.Dlist
module Fault = Dcache_util.Fault
module Trace = Dcache_util.Trace
module Profiler = Dcache_util.Profiler
module Batch = Batch

type 'a r = ('a, Errno.t) result

let ( let* ) = Result.bind
let dcache proc = Kernel.dcache proc.Proc.kernel
let kconfig proc = Kernel.config proc.Proc.kernel

(* The kernel's syscall-layer counter cells, resolved at [Kernel.create]:
   every bump below is one atomic add, never a name lookup. *)
let cells proc = Kernel.cells proc.Proc.kernel

(* Syscall entry: bump the syscall's counter and mint a request-scoped
   span (§3.8).  The span id installs as this domain's current span and
   rides every subsequent Trace stamp, netfs RPC and lease-break
   notification until the next syscall entry on the domain.  Disarmed,
   [span_enter] is a load-and-branch returning 0 and nothing is stamped. *)
let sys cell =
  Counter.bump cell;
  if Profiler.span_enter () <> 0 then Trace.stamp Trace.ev_syscall 0

let note_lookup proc path = Kernel.note_lookup proc.Proc.kernel path

let permission proc inode mask =
  if Lsm.permission (Kernel.registry proc.Proc.kernel) proc.Proc.cred (Inode.attr inode) mask
  then Ok ()
  else Error Errno.EACCES

let positive_inode d =
  match d.d_state with
  | Positive inode -> Ok inode
  | Partial _ -> Dcache.promote d
  | Negative e -> Error e

(* --- resolution helpers --- *)

(* Lookup flags as preallocated options for the [?flags] parameters below
   and [Fastpath.lookup_into]'s: a literal [~flags:f] boxes a fresh [Some]
   per call.  [None] means {!Walk.default_flags}. *)
let f_nofollow = Some Walk.nofollow_flags
let f_dir = Some Walk.dir_flags
let f_nofollow_dir = Some Walk.nofollow_dir_flags

let open_lookup_flags ~follow ~must_dir =
  if follow then (if must_dir then f_dir else None)
  else if must_dir then f_nofollow_dir
  else f_nofollow

(** Non-mutating resolution via the configured lookup machinery (fastpath
    with fallback, or the baseline two-phase slowpath), running [within]
    on the resolved location while the lookup still protects it.  Takes
    locks internally; must not be called with the dcache lock held.
    [within] should be a top-level function or a partial application of
    one: the warm path allocates nothing else. *)
let resolve_with ?start ?flags proc path ~within =
  note_lookup proc path;
  Fastpath.lookup_into (Kernel.fastpath proc.Proc.kernel) (Proc.walk_ctx proc) ?start
    ?flags path ~within

let ref_within mnt dentry = Ok { mnt; dentry }
let resolve ?start ?flags proc path = resolve_with ?start ?flags proc path ~within:ref_within

(** Resolution for mutating operations: caller must hold the write lock.
    Collects and publishes the prefix chain so that the optimized kernel's
    subsequent lookups of these directories take the fastpath. *)
let resolve_parent_locked ?start proc path =
  note_lookup proc path;
  let ctx = Proc.walk_ctx proc in
  let ctx = match start with Some s -> { ctx with Walk.cwd = s } | None -> ctx in
  let collect = (kconfig proc).Config.fastpath in
  let* p = Walk.resolve_parent Walk.Ref (dcache proc) ctx ~collect path in
  if collect then
    Fastpath.populate (Kernel.fastpath proc.Proc.kernel) ctx ~visited:p.Walk.p_visited
      ~absolute:p.Walk.p_absolute ~start:ctx.Walk.cwd;
  Ok p

let resolve_locked ?flags proc path =
  note_lookup proc path;
  (Walk.resolve_in_mode Walk.Ref (dcache proc) (Proc.walk_ctx proc) ?flags path).Walk.outcome

let with_write proc f = Dcache.with_write (dcache proc) f

(* --- metadata ---

   The warm stat/access family allocates only its result: the lookup runs
   through [Fastpath.lookup_into] with a top-level [within] (or one
   partial application of one), preallocated flag options and the
   process's cached walk context, counters are cell bumps, and [Systime]
   takes stamps instead of wrapping the call in a closure. *)

(* No promotion — a [Partial] (readdir-cached) final dentry reads ENOENT,
   as the batch ring's stat does. *)
let stat_within _mnt dentry =
  match dentry.d_state with
  | Positive inode -> Ok (Inode.attr inode)
  | Partial _ | Negative _ -> Errno.to_error Errno.ENOENT

let do_stat ?start ?flags proc path = resolve_with ?start ?flags proc path ~within:stat_within

let stat proc path =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_stat;
  let r = do_stat proc path in
  Systime.record_span Systime.Access_stat t0;
  r

let lstat proc path =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_lstat;
  let r = do_stat ?flags:f_nofollow proc path in
  Systime.record_span Systime.Access_stat t0;
  r

let fstatat proc dirfd path ?(follow = true) () =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_fstatat;
  let r =
    match Proc.find_fd_exn proc dirfd with
    | fd ->
      do_stat ?start:fd.Proc.fd_start ?flags:(if follow then None else f_nofollow) proc path
    | exception Not_found -> Errno.to_error Errno.EBADF
  in
  Systime.record_span Systime.Access_stat t0;
  r

let fstat proc fdnum =
  sys (cells proc).sys_fstat;
  let* fd = Proc.find_fd proc fdnum in
  Ok (Inode.attr fd.Proc.fd_inode)

(* Spelled out rather than through [positive_inode] and [let*]: the
   positive arm must not box an [Ok inode] or build a bind closure. *)
let access_within proc mask _mnt dentry =
  match dentry.d_state with
  | Positive inode -> permission proc inode mask
  | Partial _ -> (
    match Dcache.promote dentry with
    | Ok inode -> permission proc inode mask
    | Error e -> Error e)
  | Negative e -> Error e

let access proc path mask =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_access;
  let r = resolve_with proc path ~within:(access_within proc mask) in
  Systime.record_span Systime.Access_stat t0;
  r

let readlink proc path =
  sys (cells proc).sys_readlink;
  let* ref_ = resolve ?flags:f_nofollow proc path in
  let* inode = positive_inode ref_.dentry in
  if File_kind.equal (Inode.kind inode) File_kind.Symlink then Inode.symlink_target inode
  else Error Errno.EINVAL

(* --- open and file IO --- *)

let flag_mem flag flags = List.mem flag flags

let finish_open proc flags (ref_ : path_ref) =
  let writable = flag_mem Proc.O_WRONLY flags || flag_mem Proc.O_RDWR flags in
  let readable = not (flag_mem Proc.O_WRONLY flags) in
  let want_dir = flag_mem Proc.O_DIRECTORY flags in
  let* inode = positive_inode ref_.dentry in
  let kind = Inode.kind inode in
  let* () =
    match kind with
    | File_kind.Symlink -> Error Errno.ELOOP (* only reachable with O_NOFOLLOW *)
    | File_kind.Directory -> if writable then Error Errno.EISDIR else Ok ()
    | _ -> if want_dir then Error Errno.ENOTDIR else Ok ()
  in
  let* () = if readable then permission proc inode Access.may_read else Ok () in
  let* () =
    if writable then begin
      if ref_.mnt.mnt_readonly then Error Errno.EROFS
      else permission proc inode Access.may_write
    end
    else Ok ()
  in
  let* () =
    if flag_mem Proc.O_TRUNC flags && writable && File_kind.equal kind File_kind.Regular
    then Inode.setattr inode { Fs.no_setattr with Fs.set_size = Some 0 }
    else Ok ()
  in
  Dcache.dget ref_.dentry;
  (Inode.fs inode).Fs.pin_inode (Inode.ino inode);
  let fd =
    Proc.install_fd proc ~fd:(fun num ->
        {
          Proc.fd_num = num;
          fd_ref = ref_;
          fd_start = Some ref_;
          fd_inode = inode;
          fd_readable = readable;
          fd_writable = writable;
          fd_append = flag_mem Proc.O_APPEND flags;
          fd_pos = 0;
          fd_dir = None;
        })
  in
  Ok fd.Proc.fd_num

(* --- the mutation engine ---

   Every namespace mutation runs as resolve → plan footprint → lock →
   validate → body, written once.  With [dcache_stripes > 0] (and the
   fastpath on) the containing directory is resolved
   with no lock held; the section then takes the dcache lock's read side
   plus the parent's stripe, the parent's and the peeked child's, or both
   parents' (rename), so writer domains mutating different directories
   proceed concurrently.  Under the stripes the parent must still be a
   cached positive directory and the op's plan must accept the cached
   shape.  Any shape it rejects (uncached parents or children, [Partial]
   dentries, directories, extra hard links, mountpoints, deep-negative
   subtrees, cross-sb renames) runs the same body under the exclusive
   write lock, on a target from the ordinary locked walk; so does every
   mutation of an unsharded configuration.  Plan rejection means "take
   the big lock", never "fail".

   Lock order inside a stripe section: rwlock read side, then the
   stripe(s) — two at once only through [Locktab.lock2]'s index ordering —
   then leaf locks (the DLHT stripe inside [Dlht] splices, [lru_mu],
   [icache_mu]).  Eviction cannot run here (the clock walk crosses
   stripes), so capacity enforcement is deferred to
   [Dcache.reclaim_overflow] after every lock is dropped. *)

(* Crash-fault coverage for the stripe sections: a [Fault.crash_point]
   sits between the stripes' seqcount bump (inside [Locktab.lock2]) and the
   body.  A firing site raises {!Fault.Crash} out of the section, which
   releases its stripe(s) and the read lock on the way out, exactly as a
   kernel oops handler unwinds held spinlocks — a leaked stripe would
   leave its seqcount odd, wedging every later lockless probe that records
   it and deadlocking [Kernel.scrub]'s [with_write].  Sites default to
   [Off]; [install_crash_sites] registers them on a caller-owned
   injector. *)
type crash_sites = {
  cs_create : Fault.site;
  cs_unlink : Fault.site;
  cs_rename : Fault.site;
  cs_invalidate : Fault.site;
  cs_mkdir : Fault.site;
  cs_rmdir : Fault.site;
}

let crash_sites : crash_sites option ref = ref None

let install_crash_sites inj =
  crash_sites :=
    Some
      {
        cs_create = Fault.site inj "syscalls.sharded_create";
        cs_unlink = Fault.site inj "syscalls.sharded_unlink";
        cs_rename = Fault.site inj "syscalls.sharded_rename";
        cs_invalidate = Fault.site inj "syscalls.sharded_invalidate";
        cs_mkdir = Fault.site inj "syscalls.sharded_mkdir";
        cs_rmdir = Fault.site inj "syscalls.sharded_rmdir";
      };
  (* The stripe-locked readdir promotion lives in [Readdir] (it is shared
     with the batch front-end); its site rides the same injector. *)
  Readdir.set_crash_site (Fault.site inj "syscalls.sharded_readdir")

let clear_crash_sites () =
  crash_sites := None;
  Readdir.clear_crash_site ()
let[@inline] crash_point pick = match !crash_sites with None -> () | Some cs -> Fault.crash_point (pick cs)

(* What a mutation body runs on: the containing directory ([at]) and its
   inode, validated a positive directory; the final name; its cached child,
   if any; and whether the body runs under stripes or the write lock. *)
type target = {
  at : path_ref;
  dir : Inode.t;
  name : string;
  child : dentry option;
  striped : bool;
}

(* The write-locked footprint's target, from the ordinary locked walk.  The
   walk leaves the parent a positive directory (it needed its inode for the
   search permission check), so [positive_inode] cannot fail here. *)
let target_locked ?start proc path =
  let* p = resolve_parent_locked ?start proc path in
  let* dir = positive_inode p.Walk.parent.dentry in
  Ok { at = p.Walk.parent; dir; name = p.Walk.last; child = p.Walk.child; striped = false }

(* Split [path] into (dirname, basename) when the final component is a
   plain name.  [None] dirname means the walk start itself (cwd / dirfd).
   Trailing slashes, ".", ".." and empty basenames take the write lock. *)
let split_basename path =
  let n = String.length path in
  if n = 0 || path.[n - 1] = '/' then None
  else begin
    match String.rindex_opt path '/' with
    | None -> if path = "." || path = ".." then None else Some (None, path)
    | Some i ->
      let base = String.sub path (i + 1) (n - i - 1) in
      if base = "." || base = ".." then None
      else Some (Some (String.sub path 0 (if i = 0 then 1 else i)), base)
  end

(* Resolve the containing directory with no lock held — warm parents
   resolve locklessly through the fastpath; cold ones take the ordinary
   write-locked resolver inside [Fastpath.lookup_into].  The result is
   re-validated under the parent's stripe before anything trusts it.  Not
   counted as a lookup: the section counts the full path once it commits. *)
let resolve_dir ?start proc dirname =
  match dirname with
  | None -> ( match start with Some _ -> start | None -> Some proc.Proc.cwd)
  | Some dir -> (
    match
      Fastpath.lookup_into (Kernel.fastpath proc.Proc.kernel) (Proc.walk_ctx proc) ?start
        ?flags:f_dir dir ~within:ref_within
    with
    | Ok ref_ -> Some ref_
    | Error _ -> None)

(* The parent's inode while it is still cached (roots are never hashed)
   and still a positive directory.  A [Partial] parent would need a
   promoting mutation guarded by the {e grandparent}'s stripe. *)
let live_dir (pref : path_ref) =
  let d = pref.dentry in
  match d.d_state with
  | Positive inode when (d.d_hashed || d.d_parent = None) && Inode.is_dir inode -> Some inode
  | Positive _ | Partial _ | Negative _ -> None

let striped_target d at dir name =
  { at; dir; name; child = Dcache.lookup d at.dentry name; striped = true }

(* The locked walk checks search permission on the parent before it looks
   up the last component, so every verdict it reaches — EEXIST and ENOENT
   included — is EACCES in a directory the caller cannot search.  A stripe
   section reads the child straight from the dcache and must not skip
   that check; a denial takes the locked route, whose walk reports it. *)
let searchable proc dir = Result.is_ok (permission proc dir Access.may_exec)

(* The stripe route calls top-level functions with plain arguments — no
   per-call closure, and match chains instead of [let*] continuations in
   the bodies — because a mutation's garbage is paid for in
   stop-the-world minor collections by every domain, readers included,
   and the stripes exist for multi-domain churn. *)

let release d tab si sj =
  Locktab.unlock2 tab si sj;
  Rwlock.read_unlock (Dcache.lock d)

(* The section runner.  [enter_section], called with the dcache lock's
   read side held, takes stripes [si] and [sj] (one stripe when equal) and
   fires the section's crash point, releasing every lock if it fires.
   After validation, [run_section] runs the body under the locks and
   releases them, also when the body raises; capacity enforcement waits
   until every lock is dropped.  A rejected plan instead releases the
   locks and runs the write-locked route. *)
let enter_section d tab si sj site =
  Locktab.lock2 tab si sj;
  try crash_point site
  with e ->
    release d tab si sj;
    raise e

let run_section d tab si sj body proc arg input =
  match body proc arg input with
  | exception e ->
    release d tab si sj;
    raise e
  | r ->
    release d tab si sj;
    Dcache.reclaim_overflow d;
    r

(* The write-locked route of a one-path mutation: [body] on the target of
   the ordinary locked walk, unless the op names its own [global]. *)
let locked ?start proc ~body ~global arg path =
  with_write proc (fun () ->
      match global with
      | Some resolve -> resolve proc arg path
      | None -> Result.bind (target_locked ?start proc path) (body proc arg))

(* The child's own-id stripe guards the child's direct children, but its
   id is only learnable under the parent stripe, and parent-then-child
   acquisition would invert [Locktab.lock2]'s index ordering: so the child
   is peeked under the parent stripe alone, both stripes are then taken in
   order, and the peek is re-checked before anything trusts it. *)
let peek_child d tab si pref name =
  Locktab.lock tab si;
  let child = match live_dir pref with Some _ -> Dcache.lookup d pref.dentry name | None -> None in
  Locktab.unlock tab si;
  child

let still_peeked peeked child =
  match (peeked, child) with
  | None, _ -> true
  | Some c0, Some c -> c == c0
  | Some _, None -> false

(* A one-path mutation: the parent's stripe, plus the peeked child's with
   [peek].  [plan proc arg target] is the op's footprint predicate on the
   stripe-side target, [body proc arg target] its verdicts and commit. *)
let mutate ?start proc ~site ~peek ~plan ~body ~global arg path =
  let d = dcache proc in
  match Dcache.stripes d with
  | None -> locked ?start proc ~body ~global arg path
  | Some tab -> (
    match split_basename path with
    | None -> locked ?start proc ~body ~global arg path
    | Some (dirname, name) -> (
      match resolve_dir ?start proc dirname with
      | None -> locked ?start proc ~body ~global arg path
      | Some pref -> (
        Rwlock.read_lock (Dcache.lock d);
        let si = Locktab.index tab pref.dentry.d_id in
        let peeked = if peek then peek_child d tab si pref name else None in
        match peeked with
        | None when peek ->
          (* uncached: the fill needs the slowpath *)
          Rwlock.read_unlock (Dcache.lock d);
          locked ?start proc ~body ~global arg path
        | _ -> (
          let sj = match peeked with Some c -> Locktab.index tab c.d_id | None -> si in
          enter_section d tab si sj site;
          match live_dir pref with
          | Some dir ->
            let tg = striped_target d pref dir name in
            if still_peeked peeked tg.child && searchable proc dir && plan proc arg tg then begin
              let r = run_section d tab si sj body proc arg tg in
              note_lookup proc path;
              r
            end
            else begin
              release d tab si sj;
              locked ?start proc ~body ~global arg path
            end
          | None ->
            release d tab si sj;
            locked ?start proc ~body ~global arg path))))

let writable_dir proc tg =
  if tg.at.mnt.mnt_readonly then Error Errno.EROFS
  else permission proc tg.dir (Access.union Access.may_write Access.may_exec)

(* A name absent from the cache fits a stripe only in a complete directory:
   its absence verdict is authoritative (§5.1), while an uncached name
   elsewhere may still exist on the fs. *)
let absent_is_authoritative proc tg = Dcache.is_complete (dcache proc) tg.at.dentry

(* Backend entry mutations change the parent directory's own attributes
   (size at minimum; each backend accounts differently), so the cached
   snapshot must be re-read or a later eviction-and-refetch would observe
   a different answer than the warm cache.  The mutation itself already
   succeeded, so a failed re-read is ignored rather than surfaced. *)
let refresh_dir_attr dir_inode =
  ignore (Inode.refresh dir_inode : (unit, Errno.t) result)

(* Splice a freshly created inode in as [parent]'s child [name].  A cached
   negative is promoted in place: the name keeps its signature and DLHT
   entry, so the fastpath serves the new positive result immediately
   (§5.2).  Creating a non-directory over it evicts any deep negative
   children; a new directory is empty, so deep negatives below it stay
   valid.  A name [add_child] finds already cached is promoted the same
   way. *)
let rec splice d parent name inode = function
  | Some child ->
    if dentry_is_negative child then begin
      if not (Inode.is_dir inode) then Dcache.prune_children d child;
      Dcache.neg_forget d child
    end;
    child.d_state <- Positive inode;
    child.d_target_sig <- None;
    child
  | None -> (
    match Dcache.add_child d parent name (Positive inode) with
    | Ok child -> child
    | Error _ -> splice d parent name inode (Dcache.lookup d parent name))

(* Instantiate a freshly created child in the dcache.  On a stripe, the
   absence verdict that authorized the create came from the cache — a
   negative or a complete parent — so the backend existence probe was
   skipped (§5); the complete-parent case counts like the walk's
   complete-dir miss would have. *)
let instantiate proc tg (attr : Attr.t) =
  let d = dcache proc in
  if tg.striped then begin
    Counter.bump (cells proc).create_neg_shortcut;
    if Option.is_none tg.child then Counter.bump (Dcache.cells d).complete_dir_negative
  end;
  let inode = Dcache.iget tg.at.dentry.d_sb attr in
  Dcache.bump_dir_gen tg.at.dentry;
  splice d tg.at.dentry tg.name inode tg.child

(* --- open, with O_CREAT through the engine --- *)

let open_within proc flags mnt dentry = finish_open proc flags { mnt; dentry }

(* A stripe serves an O_EXCL verdict on a cached name and a create over a
   childless negative or into a complete directory; opening an existing
   file follows symlinks and crosses mounts under the write lock. *)
let plan_create proc (_, flags) tg =
  match tg.child with
  | Some child when dentry_is_positive child -> flag_mem Proc.O_EXCL flags
  | Some child -> Dlist.is_empty child.d_children (* deep negatives: pruning crosses stripes *)
  | None -> absent_is_authoritative proc tg

let create_body proc (mode, flags) tg =
  match tg.child with
  | Some child when dentry_is_positive child -> (
    if flag_mem Proc.O_EXCL flags then Error Errno.EEXIST
    else begin
      match dentry_kind child with
      | Some File_kind.Symlink when not (flag_mem Proc.O_NOFOLLOW flags) ->
        (* Re-resolve the full path following the trailing link. *)
        Ok `Follow_symlink
      | _ ->
        let target = Mount.traverse_mounts { tg.at with dentry = child } in
        Result.map (fun fd -> `Opened fd) (finish_open proc flags target)
    end)
  | _ ->
    match writable_dir proc tg with Error e -> Error e | Ok () ->
    match
      tg.at.dentry.d_sb.sb_fs.Fs.create (Inode.ino tg.dir) tg.name File_kind.Regular mode
        ~uid:(Cred.uid proc.Proc.cred) ~gid:(Cred.gid proc.Proc.cred)
    with Error e -> Error e | Ok attr ->
    refresh_dir_attr tg.dir;
    Counter.bump (cells proc).files_created;
    if tg.striped then Counter.bump (cells proc).sharded_create;
    let child = instantiate proc tg attr in
    Result.map (fun fd -> `Opened fd) (finish_open proc flags { tg.at with dentry = child })

let rec do_open ?(mode = Mode.default_file) ?start proc path flags =
  if not (flag_mem Proc.O_CREAT flags) then
    resolve_with ?start proc path
      ?flags:
        (open_lookup_flags
           ~follow:(not (flag_mem Proc.O_NOFOLLOW flags))
           ~must_dir:(flag_mem Proc.O_DIRECTORY flags))
      ~within:(open_within proc flags)
  else begin
    match
      mutate ?start proc ~site:(fun cs -> cs.cs_create) ~peek:false ~plan:plan_create
        ~body:create_body ~global:None (mode, flags) path
    with
    | Ok (`Opened fd) -> Ok fd
    | Ok `Follow_symlink -> do_open ~mode ?start proc path (List.filter (( <> ) Proc.O_CREAT) flags)
    | Error _ as e -> e
  end

let openf ?mode proc path flags =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_open;
  let r = do_open ?mode proc path flags in
  Systime.record_span Systime.Open t0;
  r

let openat ?mode proc dirfd path flags =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_openat;
  let r =
    match Proc.find_fd_exn proc dirfd with
    | fd -> do_open ?mode ?start:fd.Proc.fd_start proc path flags
    | exception Not_found -> Errno.to_error Errno.EBADF
  in
  Systime.record_span Systime.Open t0;
  r

let close proc fdnum =
  sys (cells proc).sys_close;
  let* fd = Proc.remove_fd proc fdnum in
  Dcache.dput fd.Proc.fd_ref.dentry;
  let inode = fd.Proc.fd_inode in
  (Inode.fs inode).Fs.unpin_inode (Inode.ino inode);
  Ok ()

let read proc fdnum len =
  sys (cells proc).sys_read;
  let* fd = Proc.find_fd proc fdnum in
  if not fd.Proc.fd_readable then Error Errno.EBADF
  else begin
    let inode = fd.Proc.fd_inode in
    let* data = (Inode.fs inode).Fs.read (Inode.ino inode) ~off:fd.Proc.fd_pos ~len in
    fd.Proc.fd_pos <- fd.Proc.fd_pos + String.length data;
    Ok data
  end

let pread proc fdnum ~off ~len =
  sys (cells proc).sys_pread;
  let* fd = Proc.find_fd proc fdnum in
  if not fd.Proc.fd_readable then Error Errno.EBADF
  else begin
    let inode = fd.Proc.fd_inode in
    (Inode.fs inode).Fs.read (Inode.ino inode) ~off ~len
  end

let do_write (fd : Proc.fd) ~off data =
  if not fd.Proc.fd_writable then Error Errno.EBADF
  else begin
    let inode = fd.Proc.fd_inode in
    let* written = (Inode.fs inode).Fs.write (Inode.ino inode) ~off data in
    Inode.note_size inode (max (Inode.attr inode).Attr.size (off + written));
    Ok written
  end

let write proc fdnum data =
  sys (cells proc).sys_write;
  let* fd = Proc.find_fd proc fdnum in
  let off =
    if fd.Proc.fd_append then (Inode.attr fd.Proc.fd_inode).Attr.size else fd.Proc.fd_pos
  in
  let* written = do_write fd ~off data in
  fd.Proc.fd_pos <- off + written;
  Ok written

let pwrite proc fdnum ~off data =
  sys (cells proc).sys_pwrite;
  let* fd = Proc.find_fd proc fdnum in
  do_write fd ~off data

(* --- directory streams (§5.1) --- *)

let dirent_of_child d =
  match d.d_state with
  | Negative _ -> None
  | Partial { p_ino; p_kind } -> Some { Fs.name = d.d_name; ino = p_ino; kind = p_kind }
  | Positive inode ->
    let attr = Inode.attr inode in
    Some { Fs.name = d.d_name; ino = attr.Attr.ino; kind = attr.Attr.kind }

let dummy_dirent = { Fs.name = ""; ino = 0; kind = File_kind.Regular }

(* Single-traversal snapshot of a complete directory's cached listing:
   size the array from the child-list length and fill it in one pass.
   (This path used to build a list, reverse it and convert to an array —
   three traversals per listing.)  Caller holds the directory's stripe or
   the write lock. *)
let listing_of_children dir =
  let buf = Array.make (Dlist.length dir.d_children) dummy_dirent in
  let n = ref 0 in
  Dcache.iter_children dir (fun child ->
      match dirent_of_child child with
      | Some entry ->
        buf.(!n) <- entry;
        incr n
      | None -> ());
  if !n = Array.length buf then buf else Array.sub buf 0 !n

let dir_stream_of (fd : Proc.fd) =
  match fd.Proc.fd_dir with
  | Some s -> s
  | None ->
    let s =
      { Proc.entries = None; index = 0; eligible = true; from_cache = false;
        snapshot_gen = 0 }
    in
    fd.Proc.fd_dir <- Some s;
    s

(* Deferred completeness promotion for a drained [getdents] stream: the
   eligibility checks at the call site ran unlocked, so the generation is
   revalidated under the directory's own-id stripe before the listing is
   cached (§5.1).  Never the global write lock on sharded configurations. *)
let promote_listing proc dir entries snapshot_gen =
  Readdir.with_dir_stripe proc dir (fun () ->
      if Readdir.dir_live dir && dir.d_dir_gen = snapshot_gen then
        ignore (Readdir.promote_listing_locked proc dir entries));
  Dcache.reclaim_overflow (dcache proc)

(* Solaris-style DNLC mode: a separate listing cache that serves repeated
   readdirs but feeds nothing back into the dcache.  A baseline model —
   kept under the write lock as before. *)
let getdents_dnlc proc (fd : Proc.fd) want =
  with_write proc (fun () ->
      let dir = fd.Proc.fd_ref.dentry in
      let stream = dir_stream_of fd in
      let dnlc = Kernel.dnlc proc.Proc.kernel in
      let* entries =
        match stream.Proc.entries with
        | Some entries -> Ok entries
        | None ->
          stream.Proc.snapshot_gen <- dir.d_dir_gen;
          let* entries =
            match Hashtbl.find_opt dnlc dir.d_id with
            | Some (gen, entries) when gen = dir.d_dir_gen ->
              Counter.bump (cells proc).readdir_from_dnlc;
              stream.Proc.from_cache <- true;
              Ok entries
            | _ ->
              Counter.bump (cells proc).readdir_from_fs;
              stream.Proc.from_cache <- false;
              let inode = fd.Proc.fd_inode in
              let* listing = (Inode.fs inode).Fs.readdir (Inode.ino inode) in
              Ok (Array.of_list listing)
          in
          stream.Proc.entries <- Some entries;
          Ok entries
      in
      let n = Array.length entries in
      let take = max 0 (min want (n - stream.Proc.index)) in
      let chunk = Array.to_list (Array.sub entries stream.Proc.index take) in
      stream.Proc.index <- stream.Proc.index + take;
      (if
         stream.Proc.index >= n && stream.Proc.eligible
         && (not stream.Proc.from_cache)
         && dir.d_dir_gen = stream.Proc.snapshot_gen
       then Hashtbl.replace dnlc dir.d_id (stream.Proc.snapshot_gen, entries));
      Ok chunk)

let getdents proc fdnum want =
  sys (cells proc).sys_getdents;
  let* fd = Proc.find_fd proc fdnum in
  if not (Inode.is_dir fd.Proc.fd_inode) then Error Errno.ENOTDIR
  else if (kconfig proc).Config.dnlc_style_completeness then
    getdents_dnlc proc fd want
  else begin
    let d = dcache proc in
    let dir = fd.Proc.fd_ref.dentry in
    let stream = dir_stream_of fd in
    let* entries =
      match stream.Proc.entries with
      | Some entries -> Ok entries
      | None ->
        (* Capture the generation with the snapshot: completion later is
           only valid if no mutation happened since this point. *)
        stream.Proc.snapshot_gen <- dir.d_dir_gen;
        let cached =
          (* A complete directory's cached children are the listing;
             snapshot them under its own-id stripe, not the global write
             lock, so concurrent listings of different directories don't
             serialize (§5.1). *)
          Readdir.with_dir_stripe proc dir (fun () ->
              if Dcache.is_complete d dir then Some (listing_of_children dir)
              else None)
        in
        let* entries =
          match cached with
          | Some entries ->
            Counter.bump (cells proc).readdir_from_cache;
            stream.Proc.from_cache <- true;
            Ok entries
          | None ->
            Counter.bump (cells proc).readdir_from_fs;
            stream.Proc.from_cache <- false;
            let inode = fd.Proc.fd_inode in
            let* listing = (Inode.fs inode).Fs.readdir (Inode.ino inode) in
            Ok (Array.of_list listing)
        in
        stream.Proc.entries <- Some entries;
        Ok entries
    in
    let n = Array.length entries in
    let take = max 0 (min want (n - stream.Proc.index)) in
    let chunk = Array.to_list (Array.sub entries stream.Proc.index take) in
    stream.Proc.index <- stream.Proc.index + take;
    (* Sequence completed without a seek, from the fs, and the directory
       did not change under us: cache the children and mark complete. *)
    (if
       stream.Proc.index >= n && stream.Proc.eligible
       && (not stream.Proc.from_cache)
       && (kconfig proc).Config.dir_completeness
       && dir.d_dir_gen = stream.Proc.snapshot_gen
     then promote_listing proc dir entries stream.Proc.snapshot_gen);
    Ok chunk
  end

(* --- scratch readdir (§5.1): whole listings, zero words warm --- *)

exception Readdir_errno = Readdir.Readdir_errno

(** Fill the per-process dirent scratch with the full listing of the open
    directory [fdnum]; returns the entry count.  Entries are readable
    through [proc.Proc.dirents] (parallel name/ino/kind arrays) until the
    next scratch-filling call on the same process.  A warm call — sharded
    configuration, DIR_COMPLETE directory — is lockless and performs zero
    minor-heap allocation; see {!Readdir}.  @raise Readdir_errno instead
    of boxing a [result] (two words) on that path. *)
let readdir_fill proc fdnum =
  sys (cells proc).sys_readdir_fill;
  let fd =
    try Proc.find_fd_exn proc fdnum
    with Not_found -> raise (Readdir_errno Errno.EBADF)
  in
  if not (Inode.is_dir fd.Proc.fd_inode) then raise (Readdir_errno Errno.ENOTDIR);
  Readdir.fill proc fd.Proc.fd_inode fd.Proc.fd_ref.dentry ~base:0

let lseek proc fdnum off =
  sys (cells proc).sys_lseek;
  let* fd = Proc.find_fd proc fdnum in
  if off < 0 then Error Errno.EINVAL
  else begin
    (match fd.Proc.fd_dir with
    | Some stream ->
      if off = 0 then begin
        stream.Proc.entries <- None;
        stream.Proc.index <- 0;
        stream.Proc.eligible <- true;
        stream.Proc.from_cache <- false
      end
      else begin
        stream.Proc.index <- off;
        stream.Proc.eligible <- false
      end
    | None -> ());
    fd.Proc.fd_pos <- off;
    Ok off
  end

let truncate proc path size =
  sys (cells proc).sys_truncate;
  if size < 0 then Error Errno.EINVAL
  else
    resolve_with proc path ~within:(fun mnt dentry ->
        let* inode = positive_inode dentry in
        if not (File_kind.equal (Inode.kind inode) File_kind.Regular) then
          Error Errno.EINVAL
        else if mnt.mnt_readonly then Error Errno.EROFS
        else begin
          let* () = permission proc inode Access.may_write in
          Inode.setattr inode { Fs.no_setattr with Fs.set_size = Some size }
        end)

(* --- namespace mutations --- *)

(* A stripe serves EEXIST on a cached name and a mkdir over any negative
   (a new directory keeps deep negatives valid) or into a complete
   directory. *)
let plan_mkdir proc _ tg =
  match tg.child with Some _ -> true | None -> absent_is_authoritative proc tg

let mkdir_body proc mode tg =
  match tg.child with
  | Some child when dentry_is_positive child -> Error Errno.EEXIST
  | _ ->
    match writable_dir proc tg with Error e -> Error e | Ok () ->
    match
      tg.at.dentry.d_sb.sb_fs.Fs.create (Inode.ino tg.dir) tg.name File_kind.Directory mode
        ~uid:(Cred.uid proc.Proc.cred) ~gid:(Cred.gid proc.Proc.cred)
    with Error e -> Error e | Ok attr ->
    if tg.striped then Counter.bump (cells proc).sharded_mkdir;
    Inode.bump_nlink tg.dir 1;
    refresh_dir_attr tg.dir;
    let child = instantiate proc tg attr in
    (* A brand-new directory's (empty) listing is fully cached (§5.1). *)
    Dcache.set_complete (dcache proc) child;
    Ok ()

let do_mkdir ?start ~mode proc path =
  mutate ?start proc ~site:(fun cs -> cs.cs_mkdir) ~peek:false ~plan:plan_mkdir ~body:mkdir_body
    ~global:None mode path

let mkdir ?(mode = Mode.default_dir) proc path =
  sys (cells proc).sys_mkdir;
  do_mkdir ~mode proc path

(* Removing a name needs its mountpoint check, then write and search
   permission on the directory. *)
let may_delete proc tg child =
  if Mount.is_mountpoint proc.Proc.ns tg.at.mnt child then Error Errno.EBUSY
  else writable_dir proc tg

(* A childless, singly-linked non-directory that is no mountpoint: the
   name a stripe may remove.  Its inode is reachable through no other
   parent's stripe, so its nlink and inode-cache bookkeeping stay inside
   the section (as for [plan_unlink]). *)
let sole_leaf proc mnt d =
  match d.d_state with
  | Positive inode ->
    (not (Inode.is_dir inode))
    && Dlist.is_empty d.d_children
    && (Inode.attr inode).Attr.nlink = 1
    && not (Mount.is_mountpoint proc.Proc.ns mnt d)
  | Negative _ | Partial _ -> false

(* An uncached name needs the slowpath's fill, a [Partial] one a
   promotion.  Extra hard links put the shared inode's nlink under other
   parents' stripes, and mountpoints and deep negatives need the write
   lock too; a negative or a directory is a verdict. *)
let plan_unlink proc () tg =
  match tg.child with
  | None -> false
  | Some child -> (
    match child.d_state with
    | Negative _ -> true
    | Partial _ -> false
    | Positive inode -> Inode.is_dir inode || sole_leaf proc tg.at.mnt child)

let unlink_body proc () tg =
  match tg.child with
  | None -> Error Errno.ENOENT
  | Some { d_state = Negative e; _ } -> Error e
  | Some child when dentry_is_dir child -> Error Errno.EISDIR
  | Some child ->
    match may_delete proc tg child with Error e -> Error e | Ok () ->
    match positive_inode child with Error e -> Error e | Ok child_inode ->
    match tg.at.dentry.d_sb.sb_fs.Fs.unlink (Inode.ino tg.dir) tg.name with
    | Error e -> Error e
    | Ok () ->
      if tg.striped then Counter.bump (cells proc).sharded_unlink;
      refresh_dir_attr tg.dir;
      Dcache.bump_dir_gen tg.at.dentry;
      Inode.bump_nlink child_inode (-1);
      if (Inode.attr child_inode).Attr.nlink <= 0 then
        Dcache.iforget child.d_sb (Inode.ino child_inode);
      Dcache.note_unlinked (dcache proc) child;
      Ok ()

let do_unlink ?start proc path =
  mutate ?start proc ~site:(fun cs -> cs.cs_unlink) ~peek:false ~plan:plan_unlink
    ~body:unlink_body ~global:None () path

let unlink proc path =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_unlink;
  let r = do_unlink proc path in
  Systime.record_span Systime.Unlink t0;
  r

(* Cached names inside the removed directory sit under its own-id stripe,
   which the peek footprint holds; grandchildren with children of their
   own sit under theirs. *)
let no_grandchildren child =
  let deep = ref false in
  Dcache.iter_children child (fun gc -> if not (Dlist.is_empty gc.d_children) then deep := true);
  not !deep

(* The mountpoint case reports EBUSY from the write-locked walk's target. *)
let plan_rmdir proc () tg =
  match tg.child with
  | None -> false
  | Some child -> (
    match child.d_state with
    | Negative _ -> true
    | Partial _ -> false
    | Positive inode ->
      (not (Inode.is_dir inode))
      || (not (Mount.is_mountpoint proc.Proc.ns tg.at.mnt child))
         && no_grandchildren child)

let rmdir_body proc () tg =
  match tg.child with
  | None -> Error Errno.ENOENT
  | Some { d_state = Negative e; _ } -> Error e
  | Some child when not (dentry_is_dir child) -> Error Errno.ENOTDIR
  | Some child ->
    match may_delete proc tg child with Error e -> Error e | Ok () ->
    match tg.at.dentry.d_sb.sb_fs.Fs.rmdir (Inode.ino tg.dir) tg.name with
    | Error e -> Error e
    | Ok () ->
      if tg.striped then Counter.bump (cells proc).sharded_rmdir;
      Dcache.bump_dir_gen tg.at.dentry;
      Inode.bump_nlink tg.dir (-1);
      refresh_dir_attr tg.dir;
      (match dentry_inode child with
      | Some child_inode -> Dcache.iforget child.d_sb (Inode.ino child_inode)
      | None -> ());
      Dcache.invalidate_structure (dcache proc) child |> ignore;
      Dcache.note_unlinked (dcache proc) child;
      Ok ()

let rmdir proc path =
  sys (cells proc).sys_rmdir;
  mutate proc ~site:(fun cs -> cs.cs_rmdir) ~peek:true ~plan:plan_rmdir ~body:rmdir_body
    ~global:None () path

let rec is_ancestor ~(of_ : dentry) candidate =
  candidate == of_
  || (match of_.d_parent with Some parent -> is_ancestor ~of_:parent candidate | None -> false)

(* Rename's footprint is both parents' stripes.  A stripe serves a
   negative source (ENOENT) and moves a childless non-directory that is no
   mountpoint onto a missing or childless negative name, onto itself, or
   over a [sole_leaf] — git's [index.lock] → [index], an editor's atomic
   save.  A directory source, a hard-linked or [Partial] target, or one
   with cached children takes the write lock.  Returns the destination's
   target, [name] in the live directory [at]/[dir].  The destination is
   looked up only behind such a source: no other source's verdict reads
   it. *)
let plan_rename proc d (src : target) at dir name =
  match src.child with
  | Some s when dentry_is_negative s -> Some { at; dir; name; child = None; striped = true }
  | Some ({ d_state = Positive inode; _ } as s)
    when (not (Inode.is_dir inode))
         && Dlist.is_empty s.d_children
         && not (Mount.is_mountpoint proc.Proc.ns src.at.mnt s) -> (
    match Dcache.lookup d at.dentry name with
    | Some t
      when not
             (t == s
             || (dentry_is_negative t && Dlist.is_empty t.d_children)
             || sole_leaf proc at.mnt t) ->
      None
    | child -> Some { at; dir; name; child; striped = true })
  | Some _ | None -> None

(* The commit holds the rename seqcount open from its invalidations to the
   splice, so a lockless walk spanning both parents retries (§3.6). *)
let rename_commit proc src s src_is_dir dst =
  let d = dcache proc in
  let target = dst.child in
  let rename_lock = Dcache.rename_lock d in
  Dcache_util.Seqcount.write_begin rename_lock;
  (* Invalidate direct-lookup state under both the old and new paths
     before mutating (§3.2). *)
  Dcache.invalidate_structure d s |> ignore;
  (match target with
  | Some tgt when dentry_is_positive tgt -> Dcache.invalidate_structure d tgt |> ignore
  | _ -> ());
  match s.d_sb.sb_fs.Fs.rename (Inode.ino src.dir) src.name (Inode.ino dst.dir) dst.name with
  | Error _ as e ->
    Dcache_util.Seqcount.write_end rename_lock;
    e
  | Ok () ->
    if src.striped then Counter.bump (cells proc).sharded_rename;
    Dcache.bump_dir_gen src.at.dentry;
    Dcache.bump_dir_gen dst.at.dentry;
    (match target with
    | Some tgt when dentry_is_positive tgt ->
      (match dentry_inode tgt with
      | Some tgt_inode ->
        Inode.bump_nlink tgt_inode (-1);
        if (Inode.attr tgt_inode).Attr.nlink <= 0 then Dcache.iforget tgt.d_sb (Inode.ino tgt_inode)
      | None -> ());
      Dcache.unhash d tgt
    | Some tgt -> Dcache.unhash d tgt
    | None -> ());
    Dcache.d_move d s ~new_parent:dst.at.dentry ~new_name:dst.name;
    let same_dir = src.at.dentry == dst.at.dentry in
    if src_is_dir && not same_dir then begin
      Inode.bump_nlink src.dir (-1);
      Inode.bump_nlink dst.dir 1
    end;
    refresh_dir_attr src.dir;
    if not same_dir then refresh_dir_attr dst.dir;
    (* Keep the old name cached as a negative dentry (§5.2). *)
    if (kconfig proc).Config.aggressive_negative then
      ignore (Dcache.add_child d src.at.dentry src.name (Negative Errno.ENOENT));
    Dcache_util.Seqcount.write_end rename_lock;
    Ok ()

let rename_body proc src dst =
  match src.child with
  | None | Some { d_state = Negative _; _ } -> Error Errno.ENOENT
  | Some _ when not (src.at.dentry.d_sb == dst.at.dentry.d_sb) -> Error Errno.EXDEV
  | Some s -> (
    match may_delete proc src s with Error e -> Error e | Ok () ->
    match writable_dir proc dst with Error e -> Error e | Ok () ->
    match positive_inode s with Error e -> Error e | Ok src_inode ->
    let src_is_dir = Inode.is_dir src_inode in
    match dst.child with
    | _ when src_is_dir && is_ancestor ~of_:dst.at.dentry s -> Error Errno.EINVAL
    | Some tgt when tgt == s -> Ok () (* rename onto itself: POSIX no-op *)
    | Some ({ d_state = Positive tgt_inode; _ } as tgt)
      when Inode.ino tgt_inode = Inode.ino src_inode && tgt.d_sb == s.d_sb ->
      Ok () (* another link to the same inode *)
    | _ when s == src.at.dentry -> Error Errno.EINVAL
    | Some tgt when dentry_is_positive tgt && Mount.is_mountpoint proc.Proc.ns dst.at.mnt tgt ->
      Error Errno.EBUSY
    | _ -> rename_commit proc src s src_is_dir dst)

let rename_locked proc old_path new_path =
  with_write proc (fun () ->
      let* src = target_locked proc old_path in
      let* dst = target_locked proc new_path in
      rename_body proc src dst)

let rename proc old_path new_path =
  sys (cells proc).sys_rename;
  let d = dcache proc in
  match Dcache.stripes d with
  | None -> rename_locked proc old_path new_path
  | Some tab -> (
    match (split_basename old_path, split_basename new_path) with
    | Some (old_dir, old_name), Some (new_dir, new_name) -> (
      match (resolve_dir proc old_dir, resolve_dir proc new_dir) with
      | Some po, Some pn when po.dentry.d_sb == pn.dentry.d_sb -> (
        Rwlock.read_lock (Dcache.lock d);
        (* both parents' stripes, in index order — the cross-rename
           deadlock case (A→B in one domain, B→A in another) serializes
           on whichever stripe sorts first *)
        let si = Locktab.index tab po.dentry.d_id and sj = Locktab.index tab pn.dentry.d_id in
        enter_section d tab si sj (fun cs -> cs.cs_rename);
        match (live_dir po, live_dir pn) with
        | Some odir, Some ndir when searchable proc odir && searchable proc ndir -> (
          let src = striped_target d po odir old_name in
          match plan_rename proc d src pn ndir new_name with
          | Some dst ->
            let r = run_section d tab si sj rename_body proc src dst in
            note_lookup proc old_path;
            note_lookup proc new_path;
            r
          | None ->
            release d tab si sj;
            rename_locked proc old_path new_path)
        | _ ->
          release d tab si sj;
          rename_locked proc old_path new_path)
      | _ -> rename_locked proc old_path new_path)
    | _ -> rename_locked proc old_path new_path)

let link proc old_path new_path =
  sys (cells proc).sys_link;
  with_write proc (fun () ->
      let* old_ref = resolve_locked ?flags:f_nofollow proc old_path in
      let* old_inode = positive_inode old_ref.dentry in
      if Inode.is_dir old_inode then Error Errno.EPERM
      else begin
        let* tg = target_locked proc new_path in
        if not (tg.at.dentry.d_sb == old_ref.dentry.d_sb) then Error Errno.EXDEV
        else begin
          match tg.child with
          | Some child when dentry_is_positive child -> Error Errno.EEXIST
          | _ ->
            let* () = writable_dir proc tg in
            let* attr =
              tg.at.dentry.d_sb.sb_fs.Fs.link (Inode.ino tg.dir) tg.name (Inode.ino old_inode)
            in
            refresh_dir_attr tg.dir;
            Inode.bump_nlink old_inode 1;
            ignore (instantiate proc tg { attr with Attr.nlink = (Inode.attr old_inode).Attr.nlink });
            Ok ()
        end
      end)

let symlink_body proc ~target tg =
  match tg.child with
  | Some child when dentry_is_positive child -> Error Errno.EEXIST
  | _ ->
    let* () = writable_dir proc tg in
    let* attr =
      tg.at.dentry.d_sb.sb_fs.Fs.symlink (Inode.ino tg.dir) tg.name ~target
        ~uid:(Cred.uid proc.Proc.cred) ~gid:(Cred.gid proc.Proc.cred)
    in
    refresh_dir_attr tg.dir;
    ignore (instantiate proc tg attr);
    Ok ()

let do_symlink ?start proc ~target path =
  with_write proc (fun () -> Result.bind (target_locked ?start proc path) (symlink_body proc ~target))

let symlink proc ~target path =
  sys (cells proc).sys_symlink;
  do_symlink proc ~target path

let mkstemp ?prng ?(prefix = "tmp") proc dir =
  sys (cells proc).sys_mkstemp;
  let prng =
    match prng with Some p -> p | None -> Dcache_util.Prng.create (Hashtbl.hash dir)
  in
  let rec attempt tries =
    if tries = 0 then Error Errno.EEXIST
    else begin
      let name = prefix ^ Dcache_util.Prng.string prng ~min_len:6 ~max_len:6 in
      let path = Vfs.Path.join dir name in
      match do_open proc path [ Proc.O_CREAT; Proc.O_EXCL; Proc.O_RDWR ] with
      | Ok fd -> Ok (fd, path)
      | Error Errno.EEXIST -> attempt (tries - 1)
      | Error _ as e -> e
    end
  in
  attempt 100

(* --- attributes and security --- *)

let owner_or_root proc (attr : Attr.t) =
  if Cred.uid proc.Proc.cred = 0 || Cred.uid proc.Proc.cred = attr.Attr.uid then Ok ()
  else Error Errno.EPERM

(* chmod/chown of a directory invalidates every cached descendant's memoized
   prefix check before the change lands (§3.2). *)
let setattr_path proc path ~privileged changes =
  with_write proc (fun () ->
      let* ref_ = resolve_locked proc path in
      let* inode = positive_inode ref_.dentry in
      let* () =
        if privileged then begin
          if Cred.uid proc.Proc.cred = 0 then Ok () else Error Errno.EPERM
        end
        else owner_or_root proc (Inode.attr inode)
      in
      if ref_.mnt.mnt_readonly then Error Errno.EROFS
      else begin
        if Inode.is_dir inode then
          Dcache.invalidate_permissions (dcache proc) ref_.dentry |> ignore;
        Inode.setattr inode changes
      end)

let chmod proc path mode =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_chmod;
  let r =
    setattr_path proc path ~privileged:false { Fs.no_setattr with Fs.set_mode = Some mode }
  in
  Systime.record_span Systime.Chmod_chown t0;
  r

let chown proc path ~uid ~gid =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_chown;
  let r =
    setattr_path proc path ~privileged:true
      { Fs.no_setattr with Fs.set_uid = Some uid; set_gid = Some gid }
  in
  Systime.record_span Systime.Chmod_chown t0;
  r

let set_label proc path label =
  sys (cells proc).sys_set_label;
  setattr_path proc path ~privileged:true { Fs.no_setattr with Fs.set_label = Some label }

(* --- process state --- *)

(* chdir/chroot target: a searchable directory, pinned before the
   protecting lookup lets go of it. *)
let enter_within proc mnt dentry =
  let* inode = positive_inode dentry in
  let* () = permission proc inode Access.may_exec in
  Dcache.dget dentry;
  Ok { mnt; dentry }

let chdir proc path =
  sys (cells proc).sys_chdir;
  let* ref_ = resolve_with proc path ?flags:f_dir ~within:(enter_within proc) in
  Dcache.dput proc.Proc.cwd.dentry;
  proc.Proc.cwd <- ref_;
  Ok ()

let fchdir proc fdnum =
  sys (cells proc).sys_fchdir;
  let* fd = Proc.find_fd proc fdnum in
  if not (Inode.is_dir fd.Proc.fd_inode) then Error Errno.ENOTDIR
  else begin
    Dcache.dget fd.Proc.fd_ref.dentry;
    Dcache.dput proc.Proc.cwd.dentry;
    proc.Proc.cwd <- fd.Proc.fd_ref;
    Ok ()
  end

let chroot proc path =
  sys (cells proc).sys_chroot;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else
    let* ref_ = resolve_with proc path ?flags:f_dir ~within:(enter_within proc) in
    Dcache.dput proc.Proc.root.dentry;
    proc.Proc.root <- ref_;
    Ok ()

(* --- mounts --- *)

let mount_fs ?(readonly = false) ?(nosuid = false) proc fs path =
  sys (cells proc).sys_mount;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else begin
    with_write proc (fun () ->
        let* at = resolve_locked ?flags:f_dir proc path in
        let* sb = Kernel.make_superblock proc.Proc.kernel fs in
        (* Mount changes remove covered entries from the DLHT (§3.2/§4.3). *)
        Dcache.invalidate_structure (dcache proc) at.dentry |> ignore;
        let* _mount =
          Mount.attach proc.Proc.ns ~at ~root:(Dcache.sb_root sb) ~sb ~readonly ~nosuid
        in
        Ok ())
  end

let bind_mount ?(readonly = false) proc ~src ~dst =
  sys (cells proc).sys_mount;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else begin
    with_write proc (fun () ->
        let* src_ref = resolve_locked ?flags:f_dir proc src in
        let* dst_ref = resolve_locked ?flags:f_dir proc dst in
        Dcache.invalidate_structure (dcache proc) dst_ref.dentry |> ignore;
        let* _mount =
          Mount.attach proc.Proc.ns ~at:dst_ref ~root:src_ref.dentry
            ~sb:src_ref.dentry.d_sb ~readonly ~nosuid:false
        in
        Ok ())
  end

let umount proc path =
  sys (cells proc).sys_umount;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else begin
    with_write proc (fun () ->
        let* ref_ = resolve_locked ?flags:f_dir proc path in
        if not (ref_.dentry == ref_.mnt.mnt_root) then Error Errno.EINVAL
        else begin
          Dcache.invalidate_structure (dcache proc) ref_.mnt.mnt_root |> ignore;
          (match ref_.mnt.mnt_mountpoint with
          | Some (_, mountpoint) ->
            Dcache.invalidate_structure (dcache proc) mountpoint |> ignore
          | None -> ());
          Mount.detach proc.Proc.ns ref_.mnt
        end)
  end

let unshare_mount_ns proc =
  sys (cells proc).sys_unshare;
  Dcache.with_write (dcache proc) (fun () ->
      let ns = Mount.clone_namespace proc.Proc.ns in
      proc.Proc.ns <- ns;
      let root = Mount.root ns in
      Dcache.dget root.dentry;
      Dcache.dget root.dentry;
      Dcache.dput proc.Proc.root.dentry;
      Dcache.dput proc.Proc.cwd.dentry;
      proc.Proc.root <- root;
      proc.Proc.cwd <- root;
      Ok ())

(* --- the *at() family: resolution relative to an open directory --- *)

let with_dirfd proc dirfd k =
  let* fd = Proc.find_fd proc dirfd in
  if not (Inode.is_dir fd.Proc.fd_inode) then Error Errno.ENOTDIR
  else k fd.Proc.fd_ref

let mkdirat ?(mode = Mode.default_dir) proc dirfd path =
  sys (cells proc).sys_mkdirat;
  with_dirfd proc dirfd (fun start -> do_mkdir ~start ~mode proc path)

let unlinkat proc dirfd path =
  sys (cells proc).sys_unlinkat;
  with_dirfd proc dirfd (fun start -> do_unlink ~start proc path)

let symlinkat proc ~target dirfd path =
  sys (cells proc).sys_symlinkat;
  with_dirfd proc dirfd (fun start -> do_symlink ~start proc ~target path)

let readlinkat proc dirfd path =
  sys (cells proc).sys_readlinkat;
  with_dirfd proc dirfd (fun start ->
      let* ref_ = resolve ~start ?flags:f_nofollow proc path in
      let* inode = positive_inode ref_.dentry in
      if File_kind.equal (Inode.kind inode) File_kind.Symlink then Inode.symlink_target inode
      else Error Errno.EINVAL)

let faccessat proc dirfd path mask =
  let t0 = Systime.stamp () in
  sys (cells proc).sys_faccessat;
  let r =
    match Proc.find_fd_exn proc dirfd with
    | fd ->
      if not (Inode.is_dir fd.Proc.fd_inode) then Errno.to_error Errno.ENOTDIR
      else resolve_with ?start:fd.Proc.fd_start proc path ~within:(access_within proc mask)
    | exception Not_found -> Errno.to_error Errno.EBADF
  in
  Systime.record_span Systime.Access_stat t0;
  r

let getcwd proc =
  sys (cells proc).sys_getcwd;
  let root = proc.Proc.root in
  let cwd = proc.Proc.cwd in
  if cwd.dentry.d_parent <> None && not cwd.dentry.d_hashed then
    (* the working directory was removed *)
    Error Errno.ENOENT
  else begin
    let rec build (r : path_ref) acc =
      if r.dentry == root.dentry && r.mnt == root.mnt then Ok acc
      else begin
        match Mount.follow_up r with
        | Some up -> build up acc
        | None -> (
          match r.dentry.d_parent with
          | Some parent -> build { r with dentry = parent } (r.dentry.d_name :: acc)
          | None -> Ok acc (* cwd outside the root (chrooted after chdir) *))
      end
    in
    let* comps = build cwd [] in
    Ok ("/" ^ String.concat "/" comps)
  end

(* Per-mount negative invalidation (§6.3, DragonFly-style): bump the
   superblock's negative generation so every cached negative on it lazily
   reads as a miss.  One integer store — no lock, no cache walk, and in
   particular not the global write lock a subtree invalidation would
   take. *)
let invalidate_negatives proc path =
  sys (cells proc).sys_invalidate_negatives;
  let* ref_ = resolve proc path in
  Dcache.invalidate_negatives (dcache proc) ref_.dentry.d_sb;
  Ok ()

(* Callback invalidation through the parent + target stripes (§3.7): a
   netfs lease break evicts one cached name, and funnelling every break
   through the global write lock would reserialize exactly the workload the
   stripes exist for.  The peek footprint holds the target's own-id stripe,
   which guards its direct children; deeper subtrees, mountpoints and
   [Partial] targets take the write lock, where the full nofollow walk
   names the victim. *)
let plan_invalidate proc () tg =
  match tg.child with
  | None -> false
  | Some child -> (
    match child.d_state with
    | Negative _ -> true
    | Partial _ -> false
    | Positive _ ->
      no_grandchildren child && not (Mount.is_mountpoint proc.Proc.ns tg.at.mnt child))

let evict proc ~striped dentry =
  match dentry.d_state with
  | Negative e -> Error e
  | Partial _ | Positive _ ->
    ignore (Dcache.invalidate_structure (dcache proc) dentry);
    Dcache.unhash ~reclaim:true (dcache proc) dentry;
    if striped then Counter.bump (cells proc).sharded_cb_invalidate;
    Ok ()

let invalidate_body proc () tg =
  match tg.child with
  | Some child -> evict proc ~striped:tg.striped child
  | None -> Error Errno.ENOENT

let invalidate_locked proc () path =
  let* ref_ = resolve_locked ?flags:f_nofollow proc path in
  evict proc ~striped:false ref_.dentry

let invalidate_path proc path =
  sys (cells proc).sys_invalidate_path;
  mutate proc ~site:(fun cs -> cs.cs_invalidate) ~peek:true ~plan:plan_invalidate
    ~body:invalidate_body ~global:(Some invalidate_locked) () path

(* --- convenience wrappers --- *)

let read_file proc path =
  let* fd = openf proc path [ Proc.O_RDONLY ] in
  let* attr = fstat proc fd in
  let* data = pread proc fd ~off:0 ~len:attr.Attr.size in
  let* () = close proc fd in
  Ok data

let write_file proc path data =
  let* fd = openf proc path [ Proc.O_CREAT; Proc.O_WRONLY; Proc.O_TRUNC ] in
  let* _ = write proc fd data in
  close proc fd

let readdir_path proc path =
  let* fd = openf proc path [ Proc.O_RDONLY; Proc.O_DIRECTORY ] in
  let rec drain acc =
    match getdents proc fd 128 with
    | Ok [] -> Ok (List.rev acc)
    | Ok chunk -> drain (List.rev_append chunk acc)
    | Error _ as e -> e
  in
  let result = drain [] in
  let* () = close proc fd in
  result

let mkdir_p proc path =
  let components = String.split_on_char '/' path |> List.filter (fun c -> c <> "") in
  let prefix = if Vfs.Path.is_absolute path then "/" else "" in
  let rec go base = function
    | [] -> Ok ()
    | comp :: rest -> (
      let current = if base = "" || base = "/" then base ^ comp else base ^ "/" ^ comp in
      match mkdir proc current with
      | Ok () | Error Errno.EEXIST -> go current rest
      | Error _ as e -> e)
  in
  go prefix components
