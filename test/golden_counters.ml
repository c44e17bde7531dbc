(* Non-zero [Kernel.stats_snapshot] after [T_equiv.golden_trace] (seed
   [T_equiv.golden_seed]) on each configuration.  Regenerate only for an
   intended change of what a counter counts. *)

let baseline =
  [
    ("dcache_hit", 483);
    ("dcache_miss", 33);
    ("files_created", 9);
    ("global_write_acquired", 224);
    ("negative_created", 37);
    ("path_bytes", 2253);
    ("path_comps", 1017);
    ("path_lookup", 404);
    ("readdir_from_fs", 2);
    ("symlink_resolved", 3);
    ("sys_access", 29);
    ("sys_chdir", 8);
    ("sys_chmod", 11);
    ("sys_close", 17);
    ("sys_fstat", 5);
    ("sys_getcwd", 7);
    ("sys_getdents", 3);
    ("sys_link", 14);
    ("sys_lstat", 20);
    ("sys_mkdir", 46);
    ("sys_open", 100);
    ("sys_pread", 5);
    ("sys_rename", 21);
    ("sys_rmdir", 14);
    ("sys_stat", 64);
    ("sys_symlink", 15);
    ("sys_truncate", 18);
    ("sys_unlink", 33);
    ("sys_write", 13);
    ("walk_components", 451);
    ("walk_negative_hit", 218);
    ("walk_refwalk_fallback", 12);
    ("walk_slowpath", 416);
  ]

let optimized =
  [
    ("complete_dir_negative", 6);
    ("completeness_set", 8);
    ("create_neg_shortcut", 10);
    ("dcache_hit", 488);
    ("dcache_miss", 7);
    ("deep_negative_created", 225);
    ("fastpath_dotdot_sublookup", 28);
    ("fastpath_fallback", 97);
    ("fastpath_hit", 132);
    ("fastpath_locked_probe", 2);
    ("fastpath_lockless_retry", 16);
    ("fastpath_negative_hit", 48);
    ("fastpath_negfail_promoted", 4);
    ("fastpath_populated", 168);
    ("fastpath_prefix_negfail", 115);
    ("fastpath_prefix_resume", 20);
    ("files_created", 9);
    ("global_write_acquired", 279);
    ("invalidate_permission_dentries", 9);
    ("invalidate_structure_dentries", 32);
    ("negative_created", 7);
    ("path_bytes", 2253);
    ("path_comps", 1017);
    ("path_lookup", 404);
    ("readdir_from_cache", 2);
    ("sharded_create", 2);
    ("sharded_mkdir", 8);
    ("symlink_resolved", 2);
    ("sys_access", 29);
    ("sys_chdir", 8);
    ("sys_chmod", 11);
    ("sys_close", 17);
    ("sys_fstat", 5);
    ("sys_getcwd", 7);
    ("sys_getdents", 3);
    ("sys_link", 14);
    ("sys_lstat", 20);
    ("sys_mkdir", 46);
    ("sys_open", 100);
    ("sys_pread", 5);
    ("sys_rename", 21);
    ("sys_rmdir", 14);
    ("sys_stat", 64);
    ("sys_symlink", 15);
    ("sys_truncate", 18);
    ("sys_unlink", 33);
    ("sys_write", 13);
    ("walk_components", 295);
    ("walk_negative_hit", 161);
    ("walk_resumed", 20);
    ("walk_slowpath", 285);
  ]
