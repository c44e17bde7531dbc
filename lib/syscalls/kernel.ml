open Dcache_vfs.Types
module Vfs = Dcache_vfs
module Dcache = Vfs.Dcache
module Mount = Vfs.Mount
module Lsm = Dcache_cred.Lsm
module Fastpath = Dcache_core.Fastpath

module Counter = Dcache_util.Stats.Counter

type cells = {
  (* syscall entries *)
  sys_access : Counter.cell;
  sys_chdir : Counter.cell;
  sys_chmod : Counter.cell;
  sys_chown : Counter.cell;
  sys_chroot : Counter.cell;
  sys_close : Counter.cell;
  sys_faccessat : Counter.cell;
  sys_fchdir : Counter.cell;
  sys_fstat : Counter.cell;
  sys_fstatat : Counter.cell;
  sys_getcwd : Counter.cell;
  sys_getdents : Counter.cell;
  sys_invalidate_negatives : Counter.cell;
  sys_invalidate_path : Counter.cell;
  sys_link : Counter.cell;
  sys_lseek : Counter.cell;
  sys_lstat : Counter.cell;
  sys_mkdir : Counter.cell;
  sys_mkdirat : Counter.cell;
  sys_mkstemp : Counter.cell;
  sys_mount : Counter.cell;
  sys_open : Counter.cell;
  sys_openat : Counter.cell;
  sys_pread : Counter.cell;
  sys_pwrite : Counter.cell;
  sys_read : Counter.cell;
  sys_readdir_fill : Counter.cell;
  sys_readlink : Counter.cell;
  sys_readlinkat : Counter.cell;
  sys_rename : Counter.cell;
  sys_rmdir : Counter.cell;
  sys_set_label : Counter.cell;
  sys_stat : Counter.cell;
  sys_symlink : Counter.cell;
  sys_symlinkat : Counter.cell;
  sys_truncate : Counter.cell;
  sys_umount : Counter.cell;
  sys_unlink : Counter.cell;
  sys_unlinkat : Counter.cell;
  sys_unshare : Counter.cell;
  sys_write : Counter.cell;
  (* per-lookup path statistics (Table 1) *)
  path_lookup : Counter.cell;
  path_bytes : Counter.cell;
  path_comps : Counter.cell;
  (* sharded mutations *)
  files_created : Counter.cell;
  sharded_create : Counter.cell;
  create_neg_shortcut : Counter.cell;
  sharded_unlink : Counter.cell;
  sharded_rename : Counter.cell;
  sharded_cb_invalidate : Counter.cell;
  sharded_mkdir : Counter.cell;
  sharded_rmdir : Counter.cell;
  (* directory listings *)
  readdir_from_cache : Counter.cell;
  readdir_from_dnlc : Counter.cell;
  readdir_from_fs : Counter.cell;
  readdir_promoted : Counter.cell;
  readdir_scratch_fill : Counter.cell;
  readdir_scratch_warm : Counter.cell;
  (* vectored submission *)
  batch_submit : Counter.cell;
  batch_ops : Counter.cell;
}

let make_cells counters =
  let cell = Counter.cell counters in
  {
    sys_access = cell "sys_access";
    sys_chdir = cell "sys_chdir";
    sys_chmod = cell "sys_chmod";
    sys_chown = cell "sys_chown";
    sys_chroot = cell "sys_chroot";
    sys_close = cell "sys_close";
    sys_faccessat = cell "sys_faccessat";
    sys_fchdir = cell "sys_fchdir";
    sys_fstat = cell "sys_fstat";
    sys_fstatat = cell "sys_fstatat";
    sys_getcwd = cell "sys_getcwd";
    sys_getdents = cell "sys_getdents";
    sys_invalidate_negatives = cell "sys_invalidate_negatives";
    sys_invalidate_path = cell "sys_invalidate_path";
    sys_link = cell "sys_link";
    sys_lseek = cell "sys_lseek";
    sys_lstat = cell "sys_lstat";
    sys_mkdir = cell "sys_mkdir";
    sys_mkdirat = cell "sys_mkdirat";
    sys_mkstemp = cell "sys_mkstemp";
    sys_mount = cell "sys_mount";
    sys_open = cell "sys_open";
    sys_openat = cell "sys_openat";
    sys_pread = cell "sys_pread";
    sys_pwrite = cell "sys_pwrite";
    sys_read = cell "sys_read";
    sys_readdir_fill = cell "sys_readdir_fill";
    sys_readlink = cell "sys_readlink";
    sys_readlinkat = cell "sys_readlinkat";
    sys_rename = cell "sys_rename";
    sys_rmdir = cell "sys_rmdir";
    sys_set_label = cell "sys_set_label";
    sys_stat = cell "sys_stat";
    sys_symlink = cell "sys_symlink";
    sys_symlinkat = cell "sys_symlinkat";
    sys_truncate = cell "sys_truncate";
    sys_umount = cell "sys_umount";
    sys_unlink = cell "sys_unlink";
    sys_unlinkat = cell "sys_unlinkat";
    sys_unshare = cell "sys_unshare";
    sys_write = cell "sys_write";
    path_lookup = cell "path_lookup";
    path_bytes = cell "path_bytes";
    path_comps = cell "path_comps";
    files_created = cell "files_created";
    sharded_create = cell "sharded_create";
    create_neg_shortcut = cell "create_neg_shortcut";
    sharded_unlink = cell "sharded_unlink";
    sharded_rename = cell "sharded_rename";
    sharded_cb_invalidate = cell "sharded_cb_invalidate";
    sharded_mkdir = cell "sharded_mkdir";
    sharded_rmdir = cell "sharded_rmdir";
    readdir_from_cache = cell "readdir_from_cache";
    readdir_from_dnlc = cell "readdir_from_dnlc";
    readdir_from_fs = cell "readdir_from_fs";
    readdir_promoted = cell "readdir_promoted";
    readdir_scratch_fill = cell "readdir_scratch_fill";
    readdir_scratch_warm = cell "readdir_scratch_warm";
    batch_submit = cell "batch_submit";
    batch_ops = cell "batch_ops";
  }

type t = {
  dcache : Dcache.t;
  fastpath : Fastpath.t;
  registry : Lsm.registry;
  init_ns : namespace;
  (* fs instance -> superblock (by physical identity), so mounting the same
     fs twice aliases the same dentries *)
  mutable sb_keys : (Dcache_fs.Fs_intf.t * superblock) list;
  (* Solaris-DNLC-style side cache of complete listings, keyed by dentry id
     and guarded by the directory's mutation generation (comparison mode). *)
  dnlc : (int, int * Dcache_fs.Fs_intf.dirent array) Hashtbl.t;
  cells : cells;
}

let make_superblock t fs =
  let rec find = function
    | [] -> None
    | (other_fs, sb) :: rest -> if other_fs == fs then Some sb else find rest
  in
  match find t.sb_keys with
  | Some sb -> Ok sb
  | None -> (
    match Dcache.make_superblock fs with
    | Ok sb ->
      t.sb_keys <- (fs, sb) :: t.sb_keys;
      Ok sb
    | Error _ as e -> e)

let create ?(config = Vfs.Config.baseline) ?(lsms = []) ~root_fs () =
  let dcache = Dcache.create config in
  let fastpath = Fastpath.create dcache in
  let registry = Lsm.create () in
  List.iter (Lsm.register registry) lsms;
  let init_ns = Mount.new_namespace () in
  let t =
    {
      dcache;
      fastpath;
      registry;
      init_ns;
      sb_keys = [];
      dnlc = Hashtbl.create 64;
      cells = make_cells (Dcache.counters dcache);
    }
  in
  (match make_superblock t root_fs with
  | Ok sb -> ignore (Mount.mount_rootfs init_ns sb)
  | Error e -> invalid_arg ("Kernel.create: bad root fs: " ^ Dcache_types.Errno.to_string e));
  t

let config t = Dcache.config t.dcache
let dcache t = t.dcache
let fastpath t = t.fastpath
let registry t = t.registry
let init_ns t = t.init_ns
let root t = Mount.root t.init_ns
let counters t = Dcache.counters t.dcache
let cells t = t.cells

(* Per-lookup path statistics (reported in the paper's Table 1). *)
let note_lookup t path =
  Counter.bump t.cells.path_lookup;
  Counter.bump_by t.cells.path_bytes (String.length path);
  Counter.bump_by t.cells.path_comps (Vfs.Path.count_components path)
let register_lsm t hooks = Lsm.register t.registry hooks

let dnlc t = t.dnlc

let drop_caches t =
  Hashtbl.reset t.dnlc;
  Dcache.with_write t.dcache (fun () -> Dcache.purge t.dcache)

type scrub_report = {
  dcache_quarantined : int;
  dlht_quarantined : int;
  scrub_problems : string list;
}

(* Degraded-mode integrity pass: quarantine (rather than serve) any cache
   state a fault campaign managed to corrupt.  Dcache first — detaching a
   broken dentry also shoots down its DLHT entry — then a table-local pass
   over the DLHT chains. *)
let scrub t =
  Dcache.with_write t.dcache (fun () ->
      let d = Dcache.scrub t.dcache in
      let dlht_quarantined, dlht_problems =
        match Dcache_core.Dlht.of_namespace_opt t.init_ns with
        | None -> (0, [])
        | Some table ->
          let r = Dcache_core.Dlht.scrub table in
          (r.Dcache_core.Dlht.scrub_quarantined, r.Dcache_core.Dlht.scrub_problems)
      in
      {
        dcache_quarantined = d.Dcache.scrub_quarantined;
        dlht_quarantined;
        scrub_problems = d.Dcache.scrub_problems @ dlht_problems;
      })

let stats_snapshot t = Counter.to_assoc (Dcache.counters t.dcache)
let reset_stats t = Counter.reset (Dcache.counters t.dcache)
