(** The simulated kernel: directory cache + fastpath + LSMs + namespaces,
    bundled behind one handle.  Two kernels with different configurations
    (e.g. {!Dcache_vfs.Config.baseline} vs {!Dcache_vfs.Config.optimized})
    over the same workload are the paper's unmodified-vs-optimized pairs. *)

open Dcache_vfs.Types

(** The syscall layer's counter cells, resolved once by {!create}; each
    field bumps the counter of the same name.  Every syscall-layer bump
    goes through this record, never a name lookup, so the warm syscall
    entry stays allocation-free.  Resolved cells list (at 0) in
    {!stats_snapshot} from boot. *)
type cells = {
  (* syscall entries *)
  sys_access : Dcache_util.Stats.Counter.cell;
  sys_chdir : Dcache_util.Stats.Counter.cell;
  sys_chmod : Dcache_util.Stats.Counter.cell;
  sys_chown : Dcache_util.Stats.Counter.cell;
  sys_chroot : Dcache_util.Stats.Counter.cell;
  sys_close : Dcache_util.Stats.Counter.cell;
  sys_faccessat : Dcache_util.Stats.Counter.cell;
  sys_fchdir : Dcache_util.Stats.Counter.cell;
  sys_fstat : Dcache_util.Stats.Counter.cell;
  sys_fstatat : Dcache_util.Stats.Counter.cell;
  sys_getcwd : Dcache_util.Stats.Counter.cell;
  sys_getdents : Dcache_util.Stats.Counter.cell;
  sys_invalidate_negatives : Dcache_util.Stats.Counter.cell;
  sys_invalidate_path : Dcache_util.Stats.Counter.cell;
  sys_link : Dcache_util.Stats.Counter.cell;
  sys_lseek : Dcache_util.Stats.Counter.cell;
  sys_lstat : Dcache_util.Stats.Counter.cell;
  sys_mkdir : Dcache_util.Stats.Counter.cell;
  sys_mkdirat : Dcache_util.Stats.Counter.cell;
  sys_mkstemp : Dcache_util.Stats.Counter.cell;
  sys_mount : Dcache_util.Stats.Counter.cell;
  sys_open : Dcache_util.Stats.Counter.cell;
  sys_openat : Dcache_util.Stats.Counter.cell;
  sys_pread : Dcache_util.Stats.Counter.cell;
  sys_pwrite : Dcache_util.Stats.Counter.cell;
  sys_read : Dcache_util.Stats.Counter.cell;
  sys_readdir_fill : Dcache_util.Stats.Counter.cell;
  sys_readlink : Dcache_util.Stats.Counter.cell;
  sys_readlinkat : Dcache_util.Stats.Counter.cell;
  sys_rename : Dcache_util.Stats.Counter.cell;
  sys_rmdir : Dcache_util.Stats.Counter.cell;
  sys_set_label : Dcache_util.Stats.Counter.cell;
  sys_stat : Dcache_util.Stats.Counter.cell;
  sys_symlink : Dcache_util.Stats.Counter.cell;
  sys_symlinkat : Dcache_util.Stats.Counter.cell;
  sys_truncate : Dcache_util.Stats.Counter.cell;
  sys_umount : Dcache_util.Stats.Counter.cell;
  sys_unlink : Dcache_util.Stats.Counter.cell;
  sys_unlinkat : Dcache_util.Stats.Counter.cell;
  sys_unshare : Dcache_util.Stats.Counter.cell;
  sys_write : Dcache_util.Stats.Counter.cell;
  (* per-lookup path statistics (Table 1) *)
  path_lookup : Dcache_util.Stats.Counter.cell;
  path_bytes : Dcache_util.Stats.Counter.cell;
  path_comps : Dcache_util.Stats.Counter.cell;
  (* sharded mutations *)
  files_created : Dcache_util.Stats.Counter.cell;
  sharded_create : Dcache_util.Stats.Counter.cell;
  create_neg_shortcut : Dcache_util.Stats.Counter.cell;
  sharded_unlink : Dcache_util.Stats.Counter.cell;
  sharded_rename : Dcache_util.Stats.Counter.cell;
  sharded_cb_invalidate : Dcache_util.Stats.Counter.cell;
  sharded_mkdir : Dcache_util.Stats.Counter.cell;
  sharded_rmdir : Dcache_util.Stats.Counter.cell;
  (* directory listings *)
  readdir_from_cache : Dcache_util.Stats.Counter.cell;
  readdir_from_dnlc : Dcache_util.Stats.Counter.cell;
  readdir_from_fs : Dcache_util.Stats.Counter.cell;
  readdir_promoted : Dcache_util.Stats.Counter.cell;
  readdir_scratch_fill : Dcache_util.Stats.Counter.cell;
  readdir_scratch_warm : Dcache_util.Stats.Counter.cell;
  (* vectored submission *)
  batch_submit : Dcache_util.Stats.Counter.cell;
  batch_ops : Dcache_util.Stats.Counter.cell;
}

type t

val create :
  ?config:Dcache_vfs.Config.t ->
  ?lsms:Dcache_cred.Lsm.hooks list ->
  root_fs:Dcache_fs.Fs_intf.t ->
  unit ->
  t

val config : t -> Dcache_vfs.Config.t
val dcache : t -> Dcache_vfs.Dcache.t
val fastpath : t -> Dcache_core.Fastpath.t
val registry : t -> Dcache_cred.Lsm.registry
val init_ns : t -> namespace
val root : t -> path_ref
val counters : t -> Dcache_util.Stats.Counter.t
val cells : t -> cells

val note_lookup : t -> string -> unit
(** Count one path lookup under ["path_lookup"], ["path_bytes"] and
    ["path_comps"] (the paper's Table 1 statistics).  Allocation-free. *)

val register_lsm : t -> Dcache_cred.Lsm.hooks -> unit

val make_superblock : t -> Dcache_fs.Fs_intf.t -> (superblock, Dcache_types.Errno.t) result
(** Superblocks are cached per fs instance, so mounting the same pseudo fs
    twice aliases the same dentries (§4.3). *)

val dnlc : t -> (int, int * Dcache_fs.Fs_intf.dirent array) Hashtbl.t
(** The Solaris-comparison side cache of complete directory listings
    ((generation, entries) per dentry id); only consulted when
    [dnlc_style_completeness] is set. *)

val drop_caches : t -> unit
(** Evict every unpinned dentry — the cold-cache experiment setup (Table 2).
    The caller drops its page caches separately. *)

type scrub_report = {
  dcache_quarantined : int;
  dlht_quarantined : int;
  scrub_problems : string list;
}

val scrub : t -> scrub_report
(** Degraded-mode integrity pass (under the write lock): run
    {!Dcache_vfs.Dcache.scrub} then {!Dcache_core.Dlht.scrub} on the init
    namespace's table, quarantining inconsistent entries instead of serving
    them.  Cheap no-op on a healthy cache; tests and the [faults] bench run
    it after fault campaigns. *)

val stats_snapshot : t -> (string * int) list
val reset_stats : t -> unit
