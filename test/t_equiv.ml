(* Observational equivalence: random syscall sequences must behave
   identically on the baseline and the optimized kernel.  This is the
   paper's core compatibility claim — every optimization is transparent to
   applications (§1, §4.4). *)

open Dcache_types
module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module S = Dcache_syscalls.Syscalls
module Config = Dcache_vfs.Config
module Cred = Dcache_cred.Cred

(* Small vocabularies keep collisions (same path reused across ops) likely. *)
let names = [| "a"; "b"; "c"; "dd"; "ee" |]

type op =
  | Mkdir of string
  | Create of string * string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Symlink of string * string
  | Link of string * string
  | Stat of string
  | Lstat of string
  | Read of string
  | Readdir of string
  | Chmod of string * int
  | Chdir of string
  | Getcwd
  | Access of string
  | Truncate of string * int
  | AsUser of op

let rec pp_op = function
  | Mkdir p -> "mkdir " ^ p
  | Create (p, data) -> Printf.sprintf "create %s %S" p data
  | Unlink p -> "unlink " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | Symlink (t, p) -> Printf.sprintf "symlink %s -> %s" p t
  | Link (a, b) -> Printf.sprintf "link %s %s" a b
  | Stat p -> "stat " ^ p
  | Lstat p -> "lstat " ^ p
  | Read p -> "read " ^ p
  | Readdir p -> "readdir " ^ p
  | Chmod (p, m) -> Printf.sprintf "chmod %s %o" p m
  | Chdir p -> "chdir " ^ p
  | Getcwd -> "getcwd"
  | Access p -> "access " ^ p
  | Truncate (p, n) -> Printf.sprintf "truncate %s %d" p n
  | AsUser op -> "as-user " ^ pp_op op

let path_gen =
  QCheck.Gen.(
    let* depth = int_range 1 4 in
    let* comps = list_size (return depth) (oneofl (Array.to_list names)) in
    let* absolute = bool in
    let* dotdot = frequency [ (9, return false); (1, return true) ] in
    let comps = if dotdot && depth > 1 then List.mapi (fun i c -> if i = 1 then ".." else c) comps else comps in
    return ((if absolute then "/" else "") ^ String.concat "/" comps))

let op_gen =
  QCheck.Gen.(
    let base =
      [
        (3, map (fun p -> Mkdir p) path_gen);
        (4, map2 (fun p d -> Create (p, d)) path_gen (oneofl [ "x"; "data"; "0123456789" ]));
        (2, map (fun p -> Unlink p) path_gen);
        (1, map (fun p -> Rmdir p) path_gen);
        (2, map2 (fun a b -> Rename (a, b)) path_gen path_gen);
        (1, map2 (fun t p -> Symlink (t, p)) path_gen path_gen);
        (1, map2 (fun a b -> Link (a, b)) path_gen path_gen);
        (6, map (fun p -> Stat p) path_gen);
        (2, map (fun p -> Lstat p) path_gen);
        (2, map (fun p -> Read p) path_gen);
        (2, map (fun p -> Readdir p) path_gen);
        (1, map2 (fun p m -> Chmod (p, m)) path_gen (oneofl [ 0o755; 0o700; 0o000; 0o644 ]));
        (1, map (fun p -> Chdir p) path_gen);
        (1, return Getcwd);
        (2, map (fun p -> Access p) path_gen);
        (1, map2 (fun p n -> Truncate (p, n)) path_gen (oneofl [ 0; 3; 100 ]));
      ]
    in
    frequency ((2, map (fun op -> AsUser op) (frequency base)) :: base))

let ops_arbitrary =
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

(* Observations are normalized results: errno name, or a digest of the
   successful result.  Inode numbers are included — both kernels drive an
   identical ramfs, so even inos must agree. *)
let obs_of_attr (a : Attr.t) =
  Printf.sprintf "ino=%d kind=%c mode=%o size=%d nlink=%d" a.Attr.ino
    (File_kind.to_char a.Attr.kind) a.Attr.mode a.Attr.size a.Attr.nlink

let obs name = function
  | Ok v -> name ^ ":ok:" ^ v
  | Error e -> name ^ ":" ^ Errno.to_string e

let run_op root_p user_p op =
  let rec go p = function
    | AsUser op -> go user_p op
    | Mkdir path -> obs "mkdir" (Result.map (fun () -> "") (S.mkdir p path))
    | Create (path, data) -> obs "create" (Result.map (fun () -> "") (S.write_file p path data))
    | Unlink path -> obs "unlink" (Result.map (fun () -> "") (S.unlink p path))
    | Rmdir path -> obs "rmdir" (Result.map (fun () -> "") (S.rmdir p path))
    | Rename (a, b) -> obs "rename" (Result.map (fun () -> "") (S.rename p a b))
    | Symlink (t, path) -> obs "symlink" (Result.map (fun () -> "") (S.symlink p ~target:t path))
    | Link (a, b) -> obs "link" (Result.map (fun () -> "") (S.link p a b))
    | Stat path -> obs "stat" (Result.map obs_of_attr (S.stat p path))
    | Lstat path -> obs "lstat" (Result.map obs_of_attr (S.lstat p path))
    | Read path -> obs "read" (S.read_file p path)
    | Readdir path ->
      obs "readdir"
        (Result.map
           (fun entries ->
             entries
             |> List.map (fun e ->
                    Printf.sprintf "%s/%d/%c" e.Dcache_fs.Fs_intf.name e.Dcache_fs.Fs_intf.ino
                      (File_kind.to_char e.Dcache_fs.Fs_intf.kind))
             |> List.sort compare |> String.concat ",")
           (S.readdir_path p path))
    | Chmod (path, mode) -> obs "chmod" (Result.map (fun () -> "") (S.chmod p path mode))
    | Chdir path -> obs "chdir" (Result.map (fun () -> "") (S.chdir p path))
    | Getcwd -> obs "getcwd" (S.getcwd p)
    | Access path -> obs "access" (Result.map (fun () -> "") (S.access p path Access.may_read))
    | Truncate (path, n) -> obs "truncate" (Result.map (fun () -> "") (S.truncate p path n))
  in
  go root_p op

let run_trace config ops =
  let fs = Dcache_fs.Ramfs.create () in
  let kernel = Kernel.create ~config ~root_fs:fs () in
  let root_p = Proc.spawn kernel in
  let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
  List.map (fun op -> run_op root_p user_p op) ops

let equivalence_test ?(reference = ("baseline", Config.baseline)) extra_label config_b =
  let reference_label, reference_config = reference in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s == %s on random syscall traces" reference_label extra_label)
    ~count:150 ops_arbitrary
    (fun ops ->
      let base = run_trace reference_config ops in
      let opt = run_trace config_b ops in
      if base <> opt then begin
        let rec first_diff i = function
          | [], [] -> ()
          | a :: rest_a, b :: rest_b ->
            if a <> b then
              QCheck.Test.fail_reportf "op %d (%s):\n  baseline: %s\n  optimized: %s" i
                (pp_op (List.nth ops i)) a b
            else first_diff (i + 1) (rest_a, rest_b)
          | _ -> QCheck.Test.fail_reportf "trace length mismatch"
        in
        first_diff 0 (base, opt)
      end;
      true)

(* The *at() family: mkdir, unlink, symlink and O_CREAT|O_EXCL opens
   relative to a dirfd opened on "/" or a random directory, interleaved
   with ordinary ops that shape the tree.  A separate generator, so the
   seed-fixed [golden_trace] (drawn from [op_gen]) is untouched. *)
type at_call = Mkdirat | Unlinkat | Symlinkat of string | Openat_excl

type at_op = Op of op | At of string * at_call * string

let pp_at_op = function
  | Op op -> pp_op op
  | At (dir, call, path) ->
    let call =
      match call with
      | Mkdirat -> "mkdirat"
      | Unlinkat -> "unlinkat"
      | Symlinkat t -> "symlinkat -> " ^ t
      | Openat_excl -> "openat O_CREAT|O_EXCL"
    in
    Printf.sprintf "%s [dirfd %s] %s" call dir path

let at_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun op -> Op op) op_gen);
        ( 2,
          let* dir = frequency [ (1, return "/"); (2, path_gen) ] in
          let* path = path_gen in
          let* call =
            frequency
              [
                (1, return Mkdirat);
                (1, return Unlinkat);
                (1, map (fun t -> Symlinkat t) path_gen);
                (1, return Openat_excl);
              ]
          in
          return (At (dir, call, path)) );
      ])

let run_at_op root_p user_p = function
  | Op op -> run_op root_p user_p op
  | At (dir, call, path) -> (
    let p = root_p in
    match S.openf p dir [ Proc.O_RDONLY; Proc.O_DIRECTORY ] with
    | Error e -> obs "opendir" (Error e)
    | Ok dirfd ->
      let unit r = Result.map (fun () -> "") r in
      let r =
        match call with
        | Mkdirat -> obs "mkdirat" (unit (S.mkdirat p dirfd path))
        | Unlinkat -> obs "unlinkat" (unit (S.unlinkat p dirfd path))
        | Symlinkat target -> obs "symlinkat" (unit (S.symlinkat p ~target dirfd path))
        | Openat_excl ->
          obs "openat"
            (Result.map
               (fun fd -> Result.fold ~ok:(fun () -> "") ~error:Errno.to_string (S.close p fd))
               (S.openat p dirfd path [ Proc.O_CREAT; Proc.O_EXCL; Proc.O_WRONLY ]))
      in
      ignore (S.close p dirfd);
      r)

let at_family_test =
  QCheck.Test.make ~name:"baseline == optimized on *at() traces" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_at_op ops))
       QCheck.Gen.(list_size (int_range 1 60) at_op_gen))
    (fun ops ->
      let run config =
        let kernel = Kernel.create ~config ~root_fs:(Dcache_fs.Ramfs.create ()) () in
        let root_p = Proc.spawn kernel in
        let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
        List.map (run_at_op root_p user_p) ops
      in
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            QCheck.Test.fail_reportf "op %d (%s):\n  baseline: %s\n  optimized: %s" i
              (pp_at_op (List.nth ops i)) a b)
        (List.combine (run Config.baseline) (run Config.optimized));
      true)

(* Re-running the same trace twice on one optimized kernel must agree with a
   fresh kernel on the second run's reads: cached state never goes stale. *)
let idempotence_test =
  QCheck.Test.make ~name:"optimized kernel: warm rerun of reads is stable" ~count:75
    ops_arbitrary
    (fun ops ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      (* Now query state twice; the second (all-cached) pass must agree. *)
      let queries =
        List.filter_map
          (function
            | Stat _ | Lstat _ | Read _ | Readdir _ -> None
            | Mkdir p | Create (p, _) | Unlink p | Rmdir p | Rename (_, p)
            | Symlink (_, p) | Link (_, p) | Chmod (p, _) | Truncate (p, _) ->
              Some [ Stat p; Lstat p; Read p; Readdir p ]
            | Chdir _ | Getcwd | Access _ | AsUser _ -> None)
          ops
        |> List.concat
      in
      let pass () = List.map (fun op -> run_op root_p user_p op) queries in
      let cold = pass () in
      let warm = pass () in
      cold = warm)

(* Structural invariants hold after any operation sequence, on every
   configuration, including under eviction pressure. *)
let invariants_test name config =
  QCheck.Test.make ~name ~count:100 ops_arbitrary (fun ops ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      match Dcache_vfs.Dcache.self_check (Kernel.dcache kernel) with
      | [] -> true
      | problems ->
        QCheck.Test.fail_reportf "invariants violated:\n%s" (String.concat "\n" problems))

(* --- prefix-resume equivalence (§3.5) ---

   Deterministic deep-path churn: a 16-deep directory chain whose ancestors
   get warmed, then cold leaf lookups interleaved with renames, permission
   churn (including full search-permission revocation on an interior
   directory, observed by the unprivileged user) and unlinks.  The
   optimized kernel serves the cold misses through the prefix-resumed
   slowpath — the longest-cached-ancestor shortcut — while the baseline
   walks every path from the root; all observations must agree, and the
   optimized run must actually have taken resumes (else the test is
   vacuous). *)

let chain_names =
  [| "alpha"; "beta"; "gamma"; "delta"; "eps"; "zeta"; "eta"; "theta";
     "iota"; "kappa"; "lambda"; "mu"; "nu"; "xi"; "omicron"; "pi" |]

let prefix_path k = "/" ^ String.concat "/" (Array.to_list (Array.sub chain_names 0 k))

let deep_churn_ops seed =
  let rng = Random.State.make [| seed |] in
  let depth = Array.length chain_names in
  let mk = List.init depth (fun i -> Mkdir (prefix_path (i + 1))) in
  let body = ref [] in
  let emit op = body := op :: !body in
  emit (Stat (prefix_path depth));
  for i = 0 to 119 do
    let r = Random.State.int rng 100 in
    let k = 2 + Random.State.int rng (depth - 2) in
    if r < 35 then begin
      (* Cold leaf under the warm chain: the optimized side resumes from
         the deepest cached ancestor. *)
      let leaf = prefix_path depth ^ Printf.sprintf "/f%d" i in
      emit (Create (leaf, "x"));
      emit (Stat leaf)
    end
    else if r < 50 then
      (* Absent name under a cached interior dir: negative fast-fail
         territory once the dir is DIR_COMPLETE. *)
      emit (Stat (prefix_path k ^ "/nope" ^ string_of_int (i land 3)))
    else if r < 62 then begin
      (* Rename an interior directory away and back: any snapshot taken
         across the rename must be refused (§3.2 invalidation counter). *)
      let p = prefix_path k in
      let tmp = prefix_path (k - 1) ^ "/tmp" in
      emit (Rename (p, tmp));
      emit (Stat (prefix_path depth));
      emit (Rename (tmp, p));
      emit (Stat (prefix_path depth ^ "/f" ^ string_of_int (i / 2)))
    end
    else if r < 74 then begin
      (* Permission churn on an interior directory of the resumed prefix,
         including full revocation: the user's lookups below it must fail
         with EACCES on both kernels — resume may never skip the check. *)
      let p = prefix_path k in
      let mode = [| 0o755; 0o700; 0o000 |].(Random.State.int rng 3) in
      emit (Chmod (p, mode));
      emit (AsUser (Stat (prefix_path depth)));
      emit (AsUser (Stat (prefix_path depth ^ "/fz" ^ string_of_int i)));
      emit (Chmod (p, 0o755))
    end
    else if r < 86 then begin
      let leaf = prefix_path depth ^ Printf.sprintf "/f%d" (Random.State.int rng (i + 1)) in
      emit (Unlink leaf);
      emit (Stat leaf)
    end
    else begin
      emit (Readdir (prefix_path k));
      emit (Stat (prefix_path k ^ "/" ^ chain_names.(k)))
    end
  done;
  mk @ List.rev !body

let run_trace_counting config ops =
  let fs = Dcache_fs.Ramfs.create () in
  let kernel = Kernel.create ~config ~root_fs:fs () in
  let root_p = Proc.spawn kernel in
  let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
  let observations = List.map (fun op -> run_op root_p user_p op) ops in
  (observations, kernel)

let counter kernel key =
  try List.assoc key (Kernel.stats_snapshot kernel) with Not_found -> 0

let prefix_resume_churn_test seed =
  Alcotest.test_case (Printf.sprintf "prefix-resume deep churn [seed %d]" seed) `Quick
    (fun () ->
      let ops = deep_churn_ops seed in
      let base, _ = run_trace_counting Config.baseline ops in
      let opt, kernel = run_trace_counting Config.optimized ops in
      let rec first_diff i ops_left = function
        | [], [] -> ()
        | a :: rest_a, b :: rest_b ->
          let op, ops_rest =
            match ops_left with o :: r -> (pp_op o, r) | [] -> ("?", [])
          in
          if a <> b then
            Alcotest.failf "op %d (%s):\n  baseline: %s\n  optimized: %s" i op a b
          else first_diff (i + 1) ops_rest (rest_a, rest_b)
        | _ -> Alcotest.fail "trace length mismatch"
      in
      first_diff 0 ops (base, opt);
      Alcotest.(check bool) "prefix resumes exercised" true
        (counter kernel "fastpath_prefix_resume" > 0))

(* Focused revocation scenario: the user warms a deep prefix (populating
   their PCC down the chain), root revokes search permission on an interior
   directory, then the user cold-misses on a leaf that was never cached.
   The snapshot scan would offer a deep resume ancestor below the revoked
   directory; trusting it would yield ENOENT (the suffix walk never
   re-crosses the revoked dir).  Correctness demands EACCES — the chmod
   bumps every descendant's version, killing the PCC entries the resume
   validation depends on, and forcing the from-root walk. *)
let revocation_test =
  Alcotest.test_case "revoked interior search perm blocks prefix resume" `Quick
    (fun () ->
      List.iter
        (fun config ->
          let fs = Dcache_fs.Ramfs.create () in
          let kernel = Kernel.create ~config ~root_fs:fs () in
          let root_p = Proc.spawn kernel in
          let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
          let deep = prefix_path 8 in
          List.iteri
            (fun i _ ->
              match S.mkdir root_p (prefix_path (i + 1)) with
              | Ok () -> ()
              | Error e -> Alcotest.failf "mkdir: %s" (Errno.to_string e))
            (List.init 8 (fun i -> i));
          (match S.write_file root_p (deep ^ "/warm") "x" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "create: %s" (Errno.to_string e));
          (* Warm the chain as the user: PCC entries for every prefix. *)
          (match S.stat user_p (deep ^ "/warm") with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "warm stat: %s" (Errno.to_string e));
          (* Root creates a leaf the user has never looked up, then revokes
             search permission two levels deep. *)
          (match S.write_file root_p (deep ^ "/cold") "y" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cold create: %s" (Errno.to_string e));
          (match S.chmod root_p (prefix_path 2) 0o000 with
          | Ok () -> ()
          | Error e -> Alcotest.failf "chmod: %s" (Errno.to_string e));
          (match S.stat user_p (deep ^ "/cold") with
          | Error Errno.EACCES -> ()
          | Ok _ -> Alcotest.fail "revoked prefix resolved for the user"
          | Error e ->
            Alcotest.failf "expected EACCES, got %s" (Errno.to_string e)))
        [ Config.baseline; Config.optimized ])

(* Deep-negative promotion (§5.2): once a DIR_COMPLETE fast-fail verdict is
   promoted to a real negative dentry, repeated probes of the same absent
   name are plain fastpath negative hits — and the application-visible
   behaviour stays exactly the baseline's ENOENT, including after the name
   is finally created. *)
let negfail_promotion_test =
  Alcotest.test_case "complete-dir fast-fail promotes to a negative dentry" `Quick
    (fun () ->
      let ops =
        [ Mkdir "/pd"; Create ("/pd/real", "x"); Readdir "/pd" ]
        @ List.concat_map
            (fun _ -> [ Stat "/pd/ghost"; Read "/pd/ghost"; Access "/pd/ghost" ])
            (List.init 6 (fun i -> i))
        @ [ Create ("/pd/ghost", "now"); Stat "/pd/ghost"; Read "/pd/ghost" ]
      in
      let base, _ = run_trace_counting Config.baseline ops in
      let opt, kernel = run_trace_counting Config.optimized ops in
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf "op %d (%s):\n  baseline: %s\n  optimized: %s" i
              (pp_op (List.nth ops i)) a b)
        (List.combine base opt);
      Alcotest.(check bool) "fast-fail verdict was promoted" true
        (counter kernel "fastpath_negfail_promoted" > 0);
      Alcotest.(check bool) "later probes were warm negative hits" true
        (counter kernel "fastpath_negative_hit" > 0))

(* --- profiling transparency (§3.8) ---

   Arming the profiler (spans minted per syscall, sketch updates on every
   verdict, span-carrying ring stamps) must be invisible to applications:
   the same deterministic deep-churn trace, run disarmed and armed on the
   optimized kernel, must produce identical observations — and the armed
   run must actually have profiled something, else the test is vacuous. *)

let run_trace_armed config ops =
  let module Trace = Dcache_util.Trace in
  let module Profiler = Dcache_util.Profiler in
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
      let observations = run_trace config ops in
      (observations, List.length (Profiler.hot ()), Trace.recorded ()))

let profiling_transparency_test seed =
  Alcotest.test_case
    (Printf.sprintf "armed profiling is invisible to applications [seed %d]" seed)
    `Quick
    (fun () ->
      let ops = deep_churn_ops seed in
      let plain = run_trace Config.optimized ops in
      let armed, hot_slots, stamps = run_trace_armed Config.optimized ops in
      let rec first_diff i ops_left = function
        | [], [] -> ()
        | a :: rest_a, b :: rest_b ->
          let op, ops_rest =
            match ops_left with o :: r -> (pp_op o, r) | [] -> ("?", [])
          in
          if a <> b then
            Alcotest.failf "op %d (%s):\n  disarmed: %s\n  armed: %s" i op a b
          else first_diff (i + 1) ops_rest (rest_a, rest_b)
        | _ -> Alcotest.fail "trace length mismatch"
      in
      first_diff 0 ops (plain, armed);
      Alcotest.(check bool) "the sketch saw the workload" true (hot_slots > 0);
      Alcotest.(check bool) "the ring saw the workload" true (stamps > 0))

let profiling_transparency_property =
  QCheck.Test.make ~name:"armed profiling never changes syscall results" ~count:75
    ops_arbitrary
    (fun ops ->
      let plain = run_trace Config.optimized ops in
      let armed, _, _ = run_trace_armed Config.optimized ops in
      plain = armed)

(* --- batched submission equivalence (§3.9) ---

   A batch of N mixed probes (stat / lstat / access) drained through the
   vectored SQ/CQ front-end must return exactly the results of the same
   ops issued sequentially at the same point — under rename / chmod /
   unlink / create churn between rounds, in both orders (batch first, so
   its grouped phase-2 populates are observed by the sequential pass, and
   sequential first, so the batch runs all-warm). *)

module Batch = Dcache_syscalls.Batch

type probe = PStat of string | PLstat of string | PAccess of string

let pp_probe = function
  | PStat p -> "bstat " ^ p
  | PLstat p -> "blstat " ^ p
  | PAccess p -> "baccess " ^ p

let probe_sequential p = function
  | PStat path -> obs "stat" (Result.map obs_of_attr (S.stat p path))
  | PLstat path -> obs "lstat" (Result.map obs_of_attr (S.lstat p path))
  | PAccess path ->
    obs "access" (Result.map (fun () -> "") (S.access p path Access.may_read))

let probe_push ring = function
  | PStat path -> ignore (Batch.push_stat ring path)
  | PLstat path -> ignore (Batch.push_lstat ring path)
  | PAccess path -> ignore (Batch.push_access ring path Access.may_read)

let probe_obs ring k pr =
  let name = match pr with PStat _ -> "stat" | PLstat _ -> "lstat" | PAccess _ -> "access" in
  if Batch.ok ring k then
    let body = match pr with PAccess _ -> "" | _ -> obs_of_attr (Batch.attr ring k) in
    name ^ ":ok:" ^ body
  else name ^ ":" ^ Errno.to_string (Batch.errno ring k)

(* Table-1 path statistics: a ring counts every op's lookup, bytes and
   components exactly as the same calls issued one by one — hits, misses,
   relative paths, dot-dot and redundant slashes alike. *)
let batch_path_stats_test =
  Alcotest.test_case "batched path statistics == sequential" `Quick (fun () ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let p = Proc.spawn kernel in
      Kit.get "tree" (S.mkdir_p p "/a/b/c");
      Kit.get "file" (S.write_file p "/a/b/c/f" "x");
      Kit.get "link" (S.symlink p ~target:"/a/b" "/a/lnk");
      Kit.get "cwd" (S.chdir p "/a");
      let probes =
        [
          PStat "/a/b/c/f"; PLstat "/a/lnk"; PAccess "b/c/f"; PStat "//a//b/./c/";
          PStat "/a/b/../b/c/f"; PLstat "/a/b/nope"; PAccess "/a/b/c/f/deeper";
          PStat "lnk/c/f"; PStat "."; PStat "/";
        ]
      in
      let names = [ "path_lookup"; "path_bytes"; "path_comps" ] in
      let snap () = List.map (Kit.counter kernel) names in
      let delta f =
        let before = snap () in
        f ();
        List.map2 ( - ) (snap ()) before
      in
      let sequential = delta (fun () -> List.iter (fun pr -> ignore (probe_sequential p pr)) probes) in
      let ring = Batch.create ~cap:16 p in
      let batched =
        delta (fun () ->
            List.iter (probe_push ring) probes;
            Batch.submit ring)
      in
      Alcotest.(check int) "one lookup per op" (List.length probes) (List.hd sequential);
      Alcotest.(check (list int)) "lookups, bytes, components" sequential batched)

let batch_equiv_churn_test ?(lexical = false) seed =
  Alcotest.test_case
    (Printf.sprintf "batched == sequential under churn [%sseed %d]"
       (if lexical then "lexical, " else "")
       seed)
    `Quick
    (fun () ->
      let rng = Random.State.make [| seed |] in
      let fs = Dcache_fs.Ramfs.create () in
      let config =
        if lexical then { Config.optimized with Config.dotdot = Config.Dotdot_lexical }
        else Config.optimized
      in
      let kernel = Kernel.create ~config ~root_fs:fs () in
      let p = Proc.spawn kernel in
      let dirs = [| "/ba"; "/bb"; "/bc" |] in
      let req what = function
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)
      in
      Array.iter (fun d -> req "mkdir" (S.mkdir p d)) dirs;
      Array.iter
        (fun d ->
          for i = 0 to 11 do
            req "file" (S.write_file p (Printf.sprintf "%s/f%d" d i) "x")
          done)
        dirs;
      req "symlink" (S.symlink p ~target:"/ba/f0" "/ba/ln");
      let n = 32 in
      let ring = Batch.create ~cap:n p in
      let random_path () =
        let d = dirs.(Random.State.int rng 3) in
        match Random.State.int rng 5 with
        | 0 -> d
        | 1 | 2 ->
          let i = Random.State.int rng 14 in
          (* The lexical row reaches odd files through a popped name, so
             the in-place ".." step runs in both phases of the batch. *)
          if lexical && i land 1 = 1 then Printf.sprintf "%s/gone/../f%d" d i
          else Printf.sprintf "%s/f%d" d i
        | 3 -> Printf.sprintf "%s/nope%d" d (Random.State.int rng 4)
        | _ -> "/ba/ln"
      in
      let random_probe () =
        let path = random_path () in
        match Random.State.int rng 3 with
        | 0 -> PStat path
        | 1 -> PLstat path
        | _ -> PAccess path
      in
      for round = 0 to 19 do
        (match Random.State.int rng 4 with
        | 0 ->
          let d = dirs.(Random.State.int rng 3) in
          let i = Random.State.int rng 14 in
          ignore (S.rename p (Printf.sprintf "%s/f%d" d i) (Printf.sprintf "%s/g%d" d i))
        | 1 ->
          ignore
            (S.chmod p
               dirs.(Random.State.int rng 3)
               [| 0o755; 0o700; 0o500 |].(Random.State.int rng 3))
        | 2 ->
          ignore
            (S.unlink p
               (Printf.sprintf "%s/f%d" dirs.(Random.State.int rng 3)
                  (Random.State.int rng 14)))
        | _ ->
          ignore
            (S.write_file p
               (Printf.sprintf "%s/f%d" dirs.(Random.State.int rng 3)
                  (Random.State.int rng 14))
               "y"));
        let probes = Array.init n (fun _ -> random_probe ()) in
        Batch.reset ring;
        Array.iter (probe_push ring) probes;
        let batch_first = round land 1 = 0 in
        let batched, sequential =
          if batch_first then begin
            Batch.submit ring;
            let b = Array.mapi (fun k pr -> probe_obs ring k pr) probes in
            (b, Array.map (probe_sequential p) probes)
          end
          else begin
            let s = Array.map (probe_sequential p) probes in
            Batch.submit ring;
            (Array.mapi (fun k pr -> probe_obs ring k pr) probes, s)
          end
        in
        Array.iteri
          (fun k pr ->
            if batched.(k) <> sequential.(k) then
              Alcotest.failf "round %d probe %d (%s, %s):\n  batched: %s\n  sequential: %s"
                round k (pp_probe pr)
                (if batch_first then "batch first" else "sequential first")
                batched.(k) sequential.(k))
          probes
      done;
      Alcotest.(check bool) "batch submissions recorded" true
        (counter kernel "batch_submit" > 0);
      Alcotest.(check bool) "misses deferred to phase 2" true
        (counter kernel "fastpath_batch_deferred" > 0))

let probe_gen =
  QCheck.Gen.(
    let* path = path_gen in
    let* k = int_range 0 2 in
    return (match k with 0 -> PStat path | 1 -> PLstat path | _ -> PAccess path))

let batch_property =
  QCheck.Test.make ~name:"batched probes match sequential probes after any trace"
    ~count:100
    (QCheck.make
       ~print:(fun (ops, probes) ->
         String.concat "; " (List.map pp_op ops)
         ^ " | "
         ^ String.concat "; " (List.map pp_probe probes))
       QCheck.Gen.(
         pair (list_size (int_range 1 40) op_gen) (list_size (int_range 1 40) probe_gen)))
    (fun (ops, probes) ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      let probes = Array.of_list probes in
      let ring = Batch.create ~cap:(Array.length probes) root_p in
      Array.iter (probe_push ring) probes;
      Batch.submit ring;
      let batched = Array.mapi (fun k pr -> probe_obs ring k pr) probes in
      let sequential = Array.map (probe_sequential root_p) probes in
      if batched <> sequential then begin
        let k = ref 0 in
        Array.iteri (fun i (b : string) -> if b <> sequential.(i) && !k = 0 then k := i + 1) batched;
        let i = max 0 (!k - 1) in
        QCheck.Test.fail_reportf "probe %d (%s):\n  batched: %s\n  sequential: %s" i
          (pp_probe probes.(i)) batched.(i) sequential.(i)
      end;
      true)

(* --- cache-fed readdir equivalence (§5.1) ---

   The promoted DIR_COMPLETE listing, the lockless scratch fill and the
   batched readdir all claim to return exactly what the backend holds.
   Check all four views of every directory against the file system's own
   [readdir] — the ground truth the cache is supposed to mirror — under
   create / unlink / rename churn, and require the optimized run to have
   actually served listings warm (else the test is vacuous). *)

let norm_dirent name ino kind =
  Printf.sprintf "%s/%d/%c" name ino (File_kind.to_char kind)

let norm_listing l = String.concat "," (List.sort compare l)

(* Ground truth straight from the backend, bypassing every cache layer. *)
let backend_listing fs p path =
  match S.stat p path with
  | Error e -> Alcotest.failf "backend stat %s: %s" path (Errno.to_string e)
  | Ok a -> (
    match fs.Dcache_fs.Fs_intf.readdir a.Attr.ino with
    | Error e -> Alcotest.failf "backend readdir %s: %s" path (Errno.to_string e)
    | Ok entries ->
      norm_listing
        (List.map
           (fun e ->
             norm_dirent e.Dcache_fs.Fs_intf.name e.Dcache_fs.Fs_intf.ino
               e.Dcache_fs.Fs_intf.kind)
           entries))

let getdents_listing p path =
  match S.readdir_path p path with
  | Error e -> Alcotest.failf "readdir_path %s: %s" path (Errno.to_string e)
  | Ok entries ->
    norm_listing
      (List.map
         (fun e ->
           norm_dirent e.Dcache_fs.Fs_intf.name e.Dcache_fs.Fs_intf.ino
             e.Dcache_fs.Fs_intf.kind)
         entries)

(* The scratch fill: open, fill the per-process dirent arrays, read them
   back out. *)
let scratch_listing p path =
  match S.openf p path [ Proc.O_RDONLY; Proc.O_DIRECTORY ] with
  | Error e -> Alcotest.failf "open %s: %s" path (Errno.to_string e)
  | Ok fd ->
    let r =
      match S.readdir_fill p fd with
      | n ->
        let ds = p.Proc.dirents in
        let rec go i acc =
          if i >= n then acc
          else
            go (i + 1)
              (norm_dirent ds.Proc.ds_names.(i) ds.Proc.ds_inos.(i) ds.Proc.ds_kinds.(i)
              :: acc)
        in
        norm_listing (go 0 [])
      | exception S.Readdir_errno e ->
        Alcotest.failf "readdir_fill %s: %s" path (Errno.to_string e)
    in
    ignore (S.close p fd);
    r

let batch_listing ring k =
  if not (Batch.ok ring k) then
    Alcotest.failf "batch readdir slot %d: %s" k (Errno.to_string (Batch.errno ring k));
  norm_listing
    (List.init (Batch.dir_len ring k) (fun j ->
         norm_dirent (Batch.dir_name ring k j) (Batch.dir_ino ring k j)
           (Batch.dir_kind ring k j)))

let readdir_equiv_churn_test seed =
  Alcotest.test_case
    (Printf.sprintf "cache-fed readdir == backend listing under churn [seed %d]" seed)
    `Quick
    (fun () ->
      let rng = Random.State.make [| seed |] in
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let p = Proc.spawn kernel in
      let dirs = [| "/ra"; "/rb"; "/rc" |] in
      let req what = function
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)
      in
      Array.iter (fun d -> req "mkdir" (S.mkdir p d)) dirs;
      Array.iter
        (fun d ->
          for i = 0 to 7 do
            req "seed" (S.write_file p (Printf.sprintf "%s/f%d" d i) "x")
          done)
        dirs;
      let ring = Batch.create ~cap:(Array.length dirs) p in
      for round = 0 to 39 do
        (* Halfway through, drop the whole cache: mkdir-born directories are
           complete from birth, so without this the fs-fed promotion path
           (readdir_from_fs -> promote) would never run. *)
        if round = 20 then Kernel.drop_caches kernel;
        (* One mutation per round; renames move entries across directories
           too, so both sides' generations churn. *)
        let d = dirs.(Random.State.int rng 3) in
        let d' = dirs.(Random.State.int rng 3) in
        let i = Random.State.int rng 12 in
        (match Random.State.int rng 5 with
        | 0 -> ignore (S.write_file p (Printf.sprintf "%s/f%d" d i) "y")
        | 1 -> ignore (S.unlink p (Printf.sprintf "%s/f%d" d i))
        | 2 ->
          ignore (S.rename p (Printf.sprintf "%s/f%d" d i) (Printf.sprintf "%s/g%d" d' i))
        | 3 -> ignore (S.mkdir p (Printf.sprintf "%s/sub%d" d (i land 3)))
        | _ ->
          (* create over a (possibly) cached negative: the shortcut path *)
          ignore (S.write_file p (Printf.sprintf "%s/n%d" d i) "z"));
        Array.iter
          (fun dir ->
            let truth = backend_listing fs p dir in
            Alcotest.(check string)
              (Printf.sprintf "round %d: getdents of %s" round dir)
              truth (getdents_listing p dir);
            Alcotest.(check string)
              (Printf.sprintf "round %d: scratch fill of %s" round dir)
              truth (scratch_listing p dir);
            (* twice: the second fill is the warm lockless path *)
            Alcotest.(check string)
              (Printf.sprintf "round %d: warm scratch fill of %s" round dir)
              truth (scratch_listing p dir))
          dirs;
        Batch.reset ring;
        Array.iter (fun dir -> ignore (Batch.push_readdir ring dir)) dirs;
        Batch.submit ring;
        Array.iteri
          (fun k dir ->
            Alcotest.(check string)
              (Printf.sprintf "round %d: batched readdir of %s" round dir)
              (backend_listing fs p dir) (batch_listing ring k))
          dirs
      done;
      Alcotest.(check bool) "listings were promoted into the cache" true
        (counter kernel "readdir_promoted" > 0);
      Alcotest.(check bool) "warm fills took the lockless path" true
        (counter kernel "readdir_scratch_warm" > 0);
      Alcotest.(check bool) "cache served listings" true
        (counter kernel "readdir_from_cache" > 0);
      match Dcache_vfs.Dcache.self_check (Kernel.dcache kernel) with
      | [] -> ()
      | problems ->
        Alcotest.failf "invariants violated:\n%s" (String.concat "\n" problems))

let rec op_paths = function
  | AsUser op -> op_paths op
  | Mkdir p | Unlink p | Rmdir p | Stat p | Lstat p | Read p | Readdir p | Chdir p
  | Access p ->
    [ p ]
  | Create (p, _) | Chmod (p, _) | Truncate (p, _) -> [ p ]
  | Rename (a, b) | Link (a, b) -> [ a; b ]
  | Symlink (_, p) -> [ p ]
  | Getcwd -> []

let readdir_equiv_property =
  QCheck.Test.make ~name:"cache-fed readdir matches the backend after any trace"
    ~count:100 ops_arbitrary
    (fun ops ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      (* Reset any chdir the trace performed so relative candidate paths
         resolve consistently across the three views. *)
      (match S.chdir root_p "/" with Ok () -> () | Error _ -> ());
      List.iter
        (fun path ->
          match S.stat root_p path with
          | Ok a when a.Attr.kind = File_kind.Directory ->
            let truth = backend_listing fs root_p path in
            let g = getdents_listing root_p path in
            let s1 = scratch_listing root_p path in
            let s2 = scratch_listing root_p path in
            if g <> truth || s1 <> truth || s2 <> truth then
              QCheck.Test.fail_reportf
                "dir %s:\n  backend:  %s\n  getdents: %s\n  scratch:  %s\n  warm:     %s"
                path truth g s1 s2
          | _ -> ())
        ("/" :: List.concat_map op_paths ops);
      true)

(* Golden counter snapshot: one fixed single-domain trace (the generator
   above at a fixed seed) must leave exactly the recorded non-zero
   [Kernel.stats_snapshot].  Pins every counter name and value across
   refactors of how counters are resolved and bumped — perfbench and the
   [/proc] readers look counters up by these names. *)
let golden_seed = 2015

let golden_trace () =
  QCheck.Gen.generate1 ~rand:(Random.State.make [| golden_seed |])
    QCheck.Gen.(list_size (return 400) op_gen)

let golden_snapshot config =
  let fs = Dcache_fs.Ramfs.create () in
  let kernel = Kernel.create ~config ~root_fs:fs () in
  let root_p = Proc.spawn kernel in
  let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
  List.iter (fun op -> ignore (run_op root_p user_p op)) (golden_trace ());
  List.filter (fun (_, v) -> v <> 0) (Kernel.stats_snapshot kernel)

let golden_test label config expected =
  Alcotest.test_case ("golden counter snapshot [" ^ label ^ "]") `Quick (fun () ->
      Alcotest.(check (list (pair string int)))
        "non-zero counters after the fixed trace" expected (golden_snapshot config))

let suite =
  [
    QCheck_alcotest.to_alcotest (equivalence_test "optimized" Config.optimized);
    QCheck_alcotest.to_alcotest
      (equivalence_test "optimized(completeness, deep negatives, symlink aliases disabled)"
         {
           Config.optimized with
           Config.dir_completeness = false;
           deep_negative = false;
           symlink_aliases = false;
         });
    QCheck_alcotest.to_alcotest
      (equivalence_test "fastpath-only" { Config.baseline with Config.fastpath = true });
    QCheck_alcotest.to_alcotest
      (equivalence_test "tiny-cache eviction"
         { Config.optimized with Config.max_dentries = 16 });
    QCheck_alcotest.to_alcotest
      (equivalence_test "unsharded mutations" { Config.optimized with Config.dcache_stripes = 0 });
    QCheck_alcotest.to_alcotest
      (equivalence_test
         ~reference:("baseline(lexical)", { Config.baseline with Config.dotdot = Config.Dotdot_lexical })
         "optimized(lexical)"
         { Config.optimized with Config.dotdot = Config.Dotdot_lexical });
    QCheck_alcotest.to_alcotest at_family_test;
    QCheck_alcotest.to_alcotest idempotence_test;
    golden_test "baseline" Config.baseline Golden_counters.baseline;
    golden_test "optimized" Config.optimized Golden_counters.optimized;
    prefix_resume_churn_test 1;
    prefix_resume_churn_test 1337;
    prefix_resume_churn_test 9001;
    revocation_test;
    negfail_promotion_test;
    profiling_transparency_test 1;
    profiling_transparency_test 1337;
    profiling_transparency_test 9001;
    QCheck_alcotest.to_alcotest profiling_transparency_property;
    batch_path_stats_test;
    batch_equiv_churn_test 1;
    batch_equiv_churn_test 1337;
    batch_equiv_churn_test 9001;
    batch_equiv_churn_test ~lexical:true 1337;
    QCheck_alcotest.to_alcotest batch_property;
    readdir_equiv_churn_test 1;
    readdir_equiv_churn_test 1337;
    readdir_equiv_churn_test 9001;
    QCheck_alcotest.to_alcotest readdir_equiv_property;
    QCheck_alcotest.to_alcotest (invariants_test "dcache invariants [baseline]" Config.baseline);
    QCheck_alcotest.to_alcotest (invariants_test "dcache invariants [optimized]" Config.optimized);
    QCheck_alcotest.to_alcotest
      (invariants_test "dcache invariants [tiny cache]"
         { Config.optimized with Config.max_dentries = 12 });
  ]
