(* Multicore behaviour: parallel lookups racing cache-mutating operations
   must never crash or return results inconsistent with the final state. *)

open Kit
module Dcache = Dcache_vfs.Dcache
module Dlht = Dcache_core.Dlht
module Fastpath = Dcache_core.Fastpath
module Prng = Dcache_util.Prng
module Rwlock = Dcache_util.Rwlock

let test_parallel_stats_consistent config () =
  let _kernel, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/par/deep/dir");
  for i = 0 to 19 do
    get "f" (S.write_file p (Printf.sprintf "/par/deep/dir/f%d" i) (string_of_int i))
  done;
  let errors = Atomic.make 0 in
  let workers =
    List.init 6 (fun w ->
        Domain.spawn (fun () ->
            let wp = Proc.fork p in
            for round = 0 to 300 do
              let i = (round + w) mod 20 in
              match S.stat wp (Printf.sprintf "/par/deep/dir/f%d" i) with
              | Ok attr ->
                if attr.Dcache_types.Attr.size <> String.length (string_of_int i) then
                  Atomic.incr errors
              | Error _ -> Atomic.incr errors
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no wrong results" 0 (Atomic.get errors)

let test_readers_race_renames ?(stable = "/race/dir/stable") config () =
  let kernel, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/race/dir");
  get "f" (S.write_file p "/race/dir/stable" "S");
  get "g" (S.write_file p "/race/one" "1");
  let stop = Atomic.make false in
  let errors = Atomic.make 0 in
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let rp = Proc.fork p in
            while not (Atomic.get stop) do
              (* [stable] never moves: it must always resolve correctly. *)
              (match S.read_file rp stable with
              | Ok "S" -> ()
              | Ok _ -> Atomic.incr errors
              | Error _ -> Atomic.incr errors);
              (* [one]/[two] flip concurrently: either result is fine, a
                 crash or wrong content is not. *)
              (match S.read_file rp "/race/one" with
              | Ok "1" | Error Dcache_types.Errno.ENOENT -> ()
              | Ok _ -> Atomic.incr errors
              | Error _ -> Atomic.incr errors)
            done))
  in
  let mutator =
    Domain.spawn (fun () ->
        let mp = Proc.fork p in
        for i = 0 to 500 do
          let src, dst = if i mod 2 = 0 then ("/race/one", "/race/two") else ("/race/two", "/race/one") in
          (match S.rename mp src dst with Ok () | Error _ -> ());
          (match S.chmod mp "/race/dir" (if i mod 2 = 0 then 0o755 else 0o700) with
          | Ok () | Error _ -> ())
        done)
  in
  Domain.join mutator;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Alcotest.(check int) "no inconsistent reads" 0 (Atomic.get errors);
  ignore kernel

let test_parallel_pcc_same_cred () =
  (* Many domains sharing one credential hammer the same PCC. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/shared/d");
  get "f" (S.write_file p "/shared/d/f" "x");
  let cred = alice () in
  get "mode" (S.chmod p "/shared" 0o755);
  let errors = Atomic.make 0 in
  let workers =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            let wp = Proc.spawn ~cred kernel in
            for _ = 0 to 500 do
              match S.stat wp "/shared/d/f" with
              | Ok _ -> ()
              | Error _ -> Atomic.incr errors
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no spurious failures" 0 (Atomic.get errors)

(* --- sharded mutation path (§3.6) --- *)

let within_unit _mnt _dentry = Ok ()

(* Same calibration trick as t_alloc: two back-to-back [Gc.minor_words]
   readings cancel out the boxed-float cost of the reading itself. *)
let measure_minor_words iters f =
  f ();
  f ();
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let self = b -. a in
  for _ = 1 to iters do
    f ()
  done;
  let c = Gc.minor_words () in
  c -. b -. self

(* N writer domains churn create/rename/unlink through two shared
   directories while reader domains prove their warm hits stay on the
   lockless tier: zero minor-heap words and zero rwlock acquisitions even
   with every writer mid-mutation.  Writers share both directories (so
   their stripes genuinely contend) but own disjoint name sets, and each
   name walks a create -> cross-directory rename -> unlink cycle whose
   every step stays sharded after the warm-up lap: create lands on the
   cached negative the previous unlink (aggressive_negative) left behind,
   so no step needs the global write lock — which is exactly what keeps
   the readers' 0-locks assertion honest. *)
let test_nwriter_churn ~writers seed () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/churn/d0");
  get "tree" (S.mkdir_p p "/churn/d1");
  get "tree" (S.mkdir_p p "/stable");
  let stable = Array.init 8 (fun i -> Printf.sprintf "/stable/f%d" i) in
  Array.iter (fun f -> get "stable" (S.write_file p f "S")) stable;
  Array.iter (fun f -> ignore (get "warm" (S.stat p f))) stable;
  let names_per_writer = 8 in
  let name w k phase =
    Printf.sprintf "/churn/d%d/w%dn%d" (if phase = 2 then 1 else 0) w k
  in
  (* Warm-up lap: one full cycle per name seeds cached negatives at both
     endpoints, so the concurrent laps below never fall back to legacy. *)
  for w = 0 to writers - 1 do
    for k = 0 to names_per_writer - 1 do
      get "warm create" (S.write_file p (name w k 0) "x");
      get "warm rename" (S.rename p (name w k 1) (name w k 2));
      get "warm unlink" (S.unlink p (name w k 2))
    done
  done;
  let stop = Atomic.make false in
  let writer_errors = Atomic.make 0 in
  let writer_ops = Atomic.make 0 in
  let writer_domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            let wp = Proc.fork p in
            let g = Prng.create (seed + (w * 7919)) in
            let phase = Array.make names_per_writer 0 in
            let ops = ref 0 in
            while not (Atomic.get stop) do
              let k = Prng.int g names_per_writer in
              let r =
                match phase.(k) with
                | 0 -> S.write_file wp (name w k 0) "x"
                | 1 -> S.rename wp (name w k 1) (name w k 2)
                | _ -> S.unlink wp (name w k 2)
              in
              (match r with Ok () -> () | Error _ -> Atomic.incr writer_errors);
              phase.(k) <- (phase.(k) + 1) mod 3;
              incr ops
            done;
            Atomic.fetch_and_add writer_ops !ops |> ignore;
            phase))
  in
  let fp = Kernel.fastpath kernel in
  let reader_words = Array.make 2 infinity in
  let reader_locks = Array.make 2 (1, 1) in
  let reader_errors = Atomic.make 0 in
  let readers =
    List.init 2 (fun r ->
        Domain.spawn (fun () ->
            let rp = Proc.fork p in
            let ctx = Proc.walk_ctx rp in
            let probe i =
              match
                Fastpath.lookup_into fp ctx stable.(i land 7) ~within:within_unit
              with
              | Ok () -> ()
              | Error _ -> Atomic.incr reader_errors
            in
            (* Warm this domain's PCC/scratch, then measure. *)
            for i = 0 to 63 do
              probe i
            done;
            Rwlock.reset_acquisition_counts ();
            let i = ref 0 in
            let words =
              measure_minor_words 10_000 (fun () ->
                  probe !i;
                  incr i)
            in
            reader_words.(r) <- words;
            reader_locks.(r) <- Rwlock.acquisition_counts ()))
  in
  List.iter Domain.join readers;
  Atomic.set stop true;
  let phases = List.map Domain.join writer_domains in
  Alcotest.(check int) "no reader errors" 0 (Atomic.get reader_errors);
  Alcotest.(check int) "no writer errors" 0 (Atomic.get writer_errors);
  Array.iteri
    (fun r words ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "reader %d: zero words over 10k warm hits mid-churn" r)
        0.0 words)
    reader_words;
  Array.iteri
    (fun r locks ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "reader %d: zero rwlock acquisitions mid-churn" r)
        (0, 0) locks)
    reader_locks;
  (* The churn really exercised the sharded path, concurrently. *)
  Alcotest.(check bool) "churn overlapped the measurement" true
    (Atomic.get writer_ops > writers * names_per_writer);
  Alcotest.(check bool) "sharded creates" true (counter kernel "sharded_create" > 0);
  Alcotest.(check bool) "sharded renames" true (counter kernel "sharded_rename" > 0);
  Alcotest.(check bool) "sharded unlinks" true (counter kernel "sharded_unlink" > 0);
  (* Quiesced: every name sits exactly where its phase says it stopped. *)
  List.iteri
    (fun w phase ->
      Array.iteri
        (fun k ph ->
          (* phase is the NEXT step, so 1 = just created (in d0),
             2 = just renamed (in d1), 0 = just unlinked (absent). *)
          let check where expected path =
            match (S.stat p path, expected) with
            | Ok _, true | Error Dcache_types.Errno.ENOENT, false -> ()
            | Ok _, false -> Alcotest.failf "w%d k%d %s: unexpectedly present" w k where
            | Error e, _ ->
              Alcotest.failf "w%d k%d %s: %s" w k where (Dcache_types.Errno.to_string e)
          in
          check "d0" (ph = 1) (name w k 1);
          check "d1" (ph = 2) (name w k 2))
        phase)
    phases

let test_cross_rename_no_deadlock () =
  (* Two writers rename between the same directory pair in opposite
     directions: naive acquire-src-then-dst stripe ordering deadlocks here
     almost immediately; [Locktab.lock2]'s index ordering must not.  The
     test passing at all (rather than hanging) is the assertion. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/dx");
  get "tree" (S.mkdir_p p "/dy");
  get "a" (S.write_file p "/dx/a" "A");
  get "b" (S.write_file p "/dy/b" "B");
  (* One lap each direction seeds cached negatives at the targets so the
     concurrent laps run sharded (and thus actually take two stripes). *)
  get "warm" (S.rename p "/dx/a" "/dy/a");
  get "warm" (S.rename p "/dy/a" "/dx/a");
  get "warm" (S.rename p "/dy/b" "/dx/b");
  get "warm" (S.rename p "/dx/b" "/dy/b");
  let errors = Atomic.make 0 in
  let flip wp src dst =
    match S.rename wp src dst with Ok () -> () | Error _ -> Atomic.incr errors
  in
  let wa =
    Domain.spawn (fun () ->
        let wp = Proc.fork p in
        for _ = 1 to 500 do
          flip wp "/dx/a" "/dy/a";
          flip wp "/dy/a" "/dx/a"
        done)
  in
  let wb =
    Domain.spawn (fun () ->
        let wp = Proc.fork p in
        for _ = 1 to 500 do
          flip wp "/dy/b" "/dx/b";
          flip wp "/dx/b" "/dy/b"
        done)
  in
  Domain.join wa;
  Domain.join wb;
  Alcotest.(check int) "every rename succeeded" 0 (Atomic.get errors);
  Alcotest.(check bool) "the sharded rename path ran" true
    (counter kernel "sharded_rename" > 0);
  Alcotest.(check string) "a intact" "A" (get "a" (S.read_file p "/dx/a"));
  Alcotest.(check string) "b intact" "B" (get "b" (S.read_file p "/dy/b"))

let test_churn_across_resize seed () =
  (* Lockless readers race a seeded create/rename/unlink storm sized to push
     the DLHT through at least one doubling, so probes keep landing while
     buckets migrate between the tables.  Stable names must always resolve
     with the right content; churned names may come and go but must never
     crash or return wrong data; afterwards the table must be structurally
     exact. *)
  let config = { Config.optimized with Config.dlht_buckets = 64 } in
  let kernel, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/churn/dir");
  let stable = Array.init 32 (fun i -> Printf.sprintf "/churn/dir/stable%d" i) in
  Array.iter (fun f -> get "stable" (S.write_file p f "S")) stable;
  Array.iter (fun f -> ignore (get "warm" (S.stat p f))) stable;
  let stop = Atomic.make false in
  let stable_errors = Atomic.make 0 in
  let churn_errors = Atomic.make 0 in
  let readers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let rp = Proc.fork p in
            let i = ref w in
            while not (Atomic.get stop) do
              (match S.read_file rp stable.(!i mod Array.length stable) with
              | Ok "S" -> ()
              | Ok _ | Error _ -> Atomic.incr stable_errors);
              (* Churned names race their own creation/removal: any errno is
                 acceptable, and [""] can be observed between a re-create's
                 truncate and write; other content is wrong. *)
              (match S.read_file rp (Printf.sprintf "/churn/dir/c%d" (!i mod 512)) with
              | Ok "x" | Ok "" | Error _ -> ()
              | Ok _ -> Atomic.incr churn_errors);
              incr i
            done))
  in
  let name n = Printf.sprintf "/churn/dir/c%d" n in
  (* Two writer domains churn the same 512 names concurrently: their ops
     conflict freely (any errno is fine), mixing sharded sections with
     legacy write-locked fallbacks while the DLHT doubles underneath. *)
  let writers =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            let wp = Proc.fork p in
            let g = Prng.create (seed + (w * 104729)) in
            for _ = 1 to 1000 do
              match Prng.int g 4 with
              | 0 | 1 -> (
                match S.write_file wp (name (Prng.int g 512)) "x" with
                | Ok () | Error _ -> ())
              | 2 -> (
                match S.unlink wp (name (Prng.int g 512)) with Ok () | Error _ -> ())
              | _ -> (
                match S.rename wp (name (Prng.int g 512)) (name (Prng.int g 512)) with
                | Ok () | Error _ -> ())
            done))
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Alcotest.(check int) "stable names always consistent" 0 (Atomic.get stable_errors);
  Alcotest.(check int) "churned names never wrong" 0 (Atomic.get churn_errors);
  let dlht =
    match Dlht.of_namespace_opt p.Proc.ns with
    | Some t -> t
    | None -> Alcotest.fail "no DLHT attached"
  in
  Alcotest.(check bool) "the churn crossed a resize boundary" true (Dlht.resizes dlht > 0);
  Dcache.with_write (Kernel.dcache kernel) (fun () -> Dlht.settle dlht);
  Alcotest.(check (list string)) "table self-check clean" [] (Dlht.self_check dlht);
  let occ = Dlht.occupancy dlht in
  Alcotest.(check int) "occupancy agrees with population" (Dlht.population dlht)
    occ.Dlht.occ_entries;
  Alcotest.(check int) "migration fully drained" 0 occ.Dlht.occ_old_pending;
  Array.iter
    (fun f ->
      match S.read_file p f with
      | Ok "S" -> ()
      | Ok c -> Alcotest.failf "%s corrupted: %S" f c
      | Error e -> Alcotest.failf "%s lost: %s" f (Dcache_types.Errno.to_string e))
    stable

let suite =
  [
    Alcotest.test_case "parallel stats [baseline]" `Slow
      (test_parallel_stats_consistent Config.baseline);
    Alcotest.test_case "parallel stats [optimized]" `Slow
      (test_parallel_stats_consistent Config.optimized);
    Alcotest.test_case "readers race renames [baseline]" `Slow
      (test_readers_race_renames Config.baseline);
    Alcotest.test_case "readers race renames [optimized]" `Slow
      (test_readers_race_renames Config.optimized);
    Alcotest.test_case "readers race renames [unsharded]" `Slow
      (test_readers_race_renames { Config.optimized with Config.dcache_stripes = 0 });
    (* The stable path's popped ".." drives the in-place lexical step
       under the same races. *)
    Alcotest.test_case "readers race renames [lexical]" `Slow
      (test_readers_race_renames ~stable:"/race/dir/gone/../stable"
         { Config.optimized with Config.dotdot = Config.Dotdot_lexical });
    Alcotest.test_case "parallel PCC same cred" `Slow test_parallel_pcc_same_cred;
    Alcotest.test_case "2-writer churn, lockless readers [seed 1]" `Slow
      (test_nwriter_churn ~writers:2 1);
    Alcotest.test_case "4-writer churn, lockless readers [seed 1337]" `Slow
      (test_nwriter_churn ~writers:4 1337);
    Alcotest.test_case "8-writer churn, lockless readers [seed 9001]" `Slow
      (test_nwriter_churn ~writers:8 9001);
    Alcotest.test_case "cross-rename lock ordering" `Slow test_cross_rename_no_deadlock;
    Alcotest.test_case "churn across resize [seed 1]" `Slow (test_churn_across_resize 1);
    Alcotest.test_case "churn across resize [seed 1337]" `Slow
      (test_churn_across_resize 1337);
    Alcotest.test_case "churn across resize [seed 9001]" `Slow
      (test_churn_across_resize 9001);
  ]
