(* Seeded generation of the three workloads: the tree each one builds and
   the op list of one pass.  Every pass leaves the namespace as it found it
   (names created in a pass are removed or renamed back before it ends), so
   the timed loop can replay the same list, and every pass has the same
   outcomes as the one the baseline-kernel oracle records. *)

module Prng = Dcache_util.Prng
module Tree_gen = Dcache_workloads.Tree_gen

(* Registers hold open file descriptors between ops of one pass. *)
type op =
  | Stat of string  (** absolute or cwd-relative *)
  | Lstat of string
  | Access of string
  | Fstatat of int * string  (** dirfd register, name *)
  | Faccessat of int * string
  | Open of int * string  (** register <- open O_RDONLY *)
  | Open_dir of int * string  (** register <- open O_DIRECTORY *)
  | Openat_dir of int * int * string  (** register <- openat(dirfd register, name) *)
  | Read of int
  | Close of int
  | Chdir of string
  | Listdir of string  (** open, getdents to the end, close *)
  | Ring of string array  (** lstats in one Batch submit *)
  | Create of int * string  (** register <- open O_CREAT|O_EXCL *)
  | Unlink of string
  | Rename of string * string
  | Mkdir of string
  | Rmdir of string

type cls = Lookup | Mutate | Listing | Other

let cls = function
  | Stat _ | Lstat _ | Access _ | Fstatat _ | Faccessat _ | Open _ | Open_dir _
  | Openat_dir _ | Ring _ ->
    Lookup
  | Create _ | Unlink _ | Rename _ | Mkdir _ | Rmdir _ -> Mutate
  | Listdir _ -> Listing
  | Read _ | Close _ | Chdir _ -> Other

(* Outcome slots an op fills: one per ring entry, one otherwise. *)
let slots = function Ring a -> Array.length a | _ -> 1

let registers = 8

type fs_kind = Ram | Disk

type t = {
  name : string;
  fs : fs_kind;
  max_dentries : int;
  cache_pages : int;  (** page cache size on [Disk] *)
  build : Dcache_syscalls.Proc.t -> string list;
      (** make the tree; returns the paths whose inodes never change *)
  pass : op array;
}

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Dcache_types.Errno.to_string e)

module S = Dcache_syscalls.Syscalls

(* Zipf(s = 1) sampler over [0, n). *)
let zipf prng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Prng.float prng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* Weighted choice of an action index. *)
let weighted prng weights =
  let total = Array.fold_left ( + ) 0 weights in
  fun () ->
    let r = ref (Prng.int prng total) and i = ref 0 in
    while !r >= weights.(!i) do
      r := !r - weights.(!i);
      incr i
    done;
    !i

(* The names in each directory of a manifest. *)
let children (m : Tree_gen.manifest) =
  let tbl = Hashtbl.create 1024 in
  let add p =
    let d = Filename.dirname p in
    Hashtbl.replace tbl d (Filename.basename p :: (try Hashtbl.find tbl d with Not_found -> []))
  in
  List.iter add (List.tl m.Tree_gen.dirs);
  List.iter add m.Tree_gen.files;
  List.iter add m.Tree_gen.symlinks;
  fun d -> List.rev (try Hashtbl.find tbl d with Not_found -> [])

(* The manifest is a function of the spec alone, but Tree_gen only reports
   paths after creating them: run it against a scratch ramfs kernel so the
   op list can be built before any set-up. *)
let manifest ~root spec =
  let k =
    Dcache_syscalls.Kernel.create ~config:Dcache_vfs.Config.baseline
      ~root_fs:(Dcache_fs.Ramfs.create ()) ()
  in
  Tree_gen.build (Dcache_syscalls.Proc.spawn k) ~root spec

let stable (m : Tree_gen.manifest) = m.Tree_gen.dirs @ m.Tree_gen.files @ m.Tree_gen.symlinks

(* ---------------------------------------------------------------------- *)
(* warm-lookup: a read-only skewed lookup stream over ~20k dentries on
   ramfs, sized to fit the dcache and the DLHT, so nearly every op is a
   fastpath hit.  A git-style index refresh (create index.lock, rename it
   over index) after each lstat sweep is its only mutation. *)

let warm_lookup ~seed =
  let prng = Prng.create seed in
  let spec =
    { (Tree_gen.source_tree ()) with
      Tree_gen.depth = 5; fanout = 5; files_per_dir = 24; file_size = 64; seed }
  in
  let root = "/home/user/proj" in
  let m = manifest ~root spec in
  (* The lookups draw from a hot set of 1024 files (and the directories
     holding them) so the per-credential PCC (4096 entries, 4-way) holds
     the working set; the rest of the tree only occupies the dcache and
     the DLHT. *)
  let files = Array.of_list m.Tree_gen.files in
  Prng.shuffle prng files;
  let hot = Array.sub files 0 1024 in
  let by_dir = Hashtbl.create 512 in
  Array.iter (fun f -> Hashtbl.add by_dir (Filename.dirname f) (Filename.basename f)) hot;
  let links = Array.of_list m.Tree_gen.symlinks in
  let links = Array.sub links 0 (min 64 (Array.length links)) in
  let file = zipf prng (Array.length hot) in
  let hot_file () = hot.(file ()) in
  let hot_dir () = Filename.dirname (hot_file ()) in
  let absent = Array.init 256 (fun i -> Printf.sprintf "%s/nosuch%d.h" (Filename.dirname hot.(i)) i) in
  let pick_absent = zipf prng (Array.length absent) in
  let index = root ^ "/.git/index" in
  let ops = ref [] and n = ref 0 in
  let emit op =
    ops := op :: !ops;
    n := !n + slots op
  in
  let dotdot p =
    (* "/a/b/c/f" -> "/a/b/c/../c/f" *)
    let d = Filename.dirname p in
    Filename.concat (Filename.concat (Filename.concat d "..") (Filename.basename d)) (Filename.basename p)
  in
  let kid_names d = Array.of_list (Hashtbl.find_all by_dir d) in
  let action =
    weighted prng [| 25; 10; 8; 3; 4; 5; 2; 6; 4; 5; 1 |]
  in
  let sweep_at = ref 2000 and sweep_pos = ref 0 in
  while !n < 24_000 do
    (match action () with
    | 0 -> emit (Stat (hot_file ()))
    | 1 -> emit (Lstat (hot_file ()))
    | 2 -> emit (Access (hot_file ()))
    | 3 -> emit (Stat links.(Prng.int prng (Array.length links)))
    | 4 -> emit (Stat (dotdot (hot_file ())))
    | 5 -> emit (Stat absent.(pick_absent ()))
    | 6 -> emit (Stat (hot_file () ^ "/x/y"))
    | 7 ->
      let d = hot_dir () in
      let names = kid_names d in
      emit (Open_dir (0, d));
      for i = 1 to 4 do
        let nm = names.(Prng.int prng (Array.length names)) in
        emit (if i = 4 then Faccessat (0, nm) else Fstatat (0, nm))
      done;
      emit (Close 0)
    | 8 ->
      let d = hot_dir () in
      let names = kid_names d in
      emit (Chdir d);
      for _ = 1 to 4 do
        emit (Stat names.(Prng.int prng (Array.length names)))
      done;
      emit (Chdir "/")
    | 9 ->
      emit (Open (1, hot_file ()));
      emit (Read 1);
      emit (Close 1)
    | _ -> emit (Listdir (hot_dir ())));
    if !n >= !sweep_at then begin
      sweep_at := !sweep_at + 2000;
      for _ = 1 to 8 do
        emit
          (Ring
             (Array.init 32 (fun _ ->
                  let f = hot.(!sweep_pos mod Array.length hot) in
                  incr sweep_pos;
                  f)))
      done;
      emit (Create (2, index ^ ".lock"));
      emit (Close 2);
      emit (Rename (index ^ ".lock", index))
    end
  done;
  let build proc =
    ignore (Tree_gen.build proc ~root spec);
    ok "mkdir .git" (S.mkdir proc (root ^ "/.git"));
    ok "index" (S.write_file proc index "index");
    stable m
  in
  { name = "warm-lookup"; fs = Ram; max_dentries = 1 lsl 20; cache_pages = 0; build;
    pass = Array.of_list (List.rev !ops) }

(* ---------------------------------------------------------------------- *)
(* cold-tree: find, du, git status and a make-style header search over an
   extfs tree four times larger than the dcache, so lookups fall to the
   slowpath and the file system.  The page cache holds the metadata. *)

let cold_tree ~seed =
  let prng = Prng.create seed in
  let spec =
    { (Tree_gen.source_tree ()) with
      Tree_gen.depth = 5; fanout = 4; files_per_dir = 20; file_size = 0; seed }
  in
  let root = "/src" in
  let m = manifest ~root spec in
  let kids = children m in
  let entries = List.length (stable m) in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let is_dir = Hashtbl.create 512 in
  List.iter (fun d -> Hashtbl.replace is_dir d ()) m.Tree_gen.dirs;
  (* find: fts-style walk with a dirfd per level *)
  let rec find reg d =
    emit (Listdir d);
    List.iter
      (fun nm ->
        emit (Fstatat (reg, nm));
        let child = Filename.concat d nm in
        if Hashtbl.mem is_dir child then begin
          emit (Openat_dir (reg + 1, reg, nm));
          find (reg + 1) child;
          emit (Close (reg + 1))
        end)
      (kids d)
  in
  emit (Open_dir (0, root));
  find 0 root;
  emit (Close 0);
  (* du: listings plus an lstat of every entry by full path *)
  List.iter
    (fun d ->
      emit (Listdir d);
      List.iter (fun nm -> emit (Lstat (Filename.concat d nm))) (kids d))
    m.Tree_gen.dirs;
  (* git status *)
  let index = root ^ "/.git/index" in
  emit (Open (0, index));
  emit (Read 0);
  emit (Close 0);
  List.iter (fun f -> emit (Lstat f)) m.Tree_gen.files;
  (* make: stat + read each source, search its headers along the include
     path (two directories that never hold them), write the object *)
  let headers = Array.init 64 (fun i -> Printf.sprintf "%s_%d.h" (Prng.string prng ~min_len:3 ~max_len:8) i) in
  let inc = root ^ "/include" and missing = [ root ^ "/arch/include"; root ^ "/gen/include" ] in
  let obj = root ^ "/obj" in
  let sources = Array.of_list m.Tree_gen.files in
  Prng.shuffle prng sources;
  let sources = Array.sub sources 0 (min 400 (Array.length sources)) in
  Array.iteri
    (fun i src ->
      emit (Stat src);
      emit (Open (0, src));
      emit (Read 0);
      emit (Close 0);
      for _ = 1 to 3 do
        let h = headers.(Prng.int prng (Array.length headers)) in
        List.iter (fun d -> emit (Stat (Filename.concat d h))) missing;
        emit (Stat (Filename.concat inc h))
      done;
      let o = Printf.sprintf "%s/%d.o" obj i in
      emit (Create (1, o ^ ".tmp"));
      emit (Close 1);
      emit (Rename (o ^ ".tmp", o)))
    sources;
  let build proc =
    ignore (Tree_gen.build proc ~root spec);
    ok "mkdir .git" (S.mkdir proc (root ^ "/.git"));
    ok "index" (S.write_file proc index (String.concat "\n" m.Tree_gen.files));
    List.iter (fun d -> ok "mkdir" (S.mkdir_p proc d)) (inc :: obj :: missing);
    Array.iter (fun h -> ok "header" (S.write_file proc (Filename.concat inc h) "#define X 1\n")) headers;
    Array.iteri (fun i _ -> ok "obj" (S.write_file proc (Printf.sprintf "%s/%d.o" obj i) "")) sources;
    stable m @ Array.to_list (Array.map (Filename.concat inc) headers)
  in
  { name = "cold-tree"; fs = Disk; max_dentries = entries / 4; cache_pages = 8192; build;
    pass = Array.of_list (List.rev !ops) }

(* ---------------------------------------------------------------------- *)
(* mutate-mix: maildir traffic (flag renames, delivery through tmp/ and
   new/, expunge, mailbox re-reads), mkstemp-style unique creates and
   per-job mkdir/rmdir on ramfs, interleaved with stats of the same
   names. *)

let flag_sets = [| ""; "S"; "RS"; "F"; "FS"; "R" |]

let mutate_mix ~seed =
  let prng = Prng.create seed in
  let boxes = 8 and msgs = 400 in
  let box b = Printf.sprintf "/mail/u%d" b in
  let base =
    Array.init boxes (fun _ ->
        Array.init msgs (fun i -> Printf.sprintf "%d.M%dP%d.host" (1_600_000_000 + i) (Prng.int prng 1_000_000) i))
  in
  let orig = Array.map (Array.map (fun _ -> Prng.int prng (Array.length flag_sets))) base in
  let flags = Array.map Array.copy orig in
  let cur b i = Printf.sprintf "%s/cur/%s:2,%s" (box b) base.(b).(i) flag_sets.(flags.(b).(i)) in
  let msg = zipf prng msgs in
  let used = Hashtbl.create 4096 in
  let rec unique () =
    let s = Prng.string prng ~min_len:6 ~max_len:6 in
    if Hashtbl.mem used s then unique ()
    else begin
      Hashtbl.replace used s ();
      s
    end
  in
  let ops = ref [] and n = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr n
  in
  let delivered = Array.make boxes [] in
  let jobs = ref 0 in
  let action = weighted prng [| 30; 3; 10; 5; 10; 4; 20; 5 |] in
  while !n < 20_000 do
    let b = Prng.int prng boxes in
    match action () with
    | 0 ->
      let i = msg () in
      let old = cur b i in
      let f = ref (Prng.int prng (Array.length flag_sets)) in
      if !f = flags.(b).(i) then f := (!f + 1) mod Array.length flag_sets;
      flags.(b).(i) <- !f;
      emit (Rename (old, cur b i));
      emit (Stat (cur b i));
      emit (Stat old)
    | 1 ->
      emit (Listdir (box b ^ "/cur"));
      for _ = 1 to 4 do
        emit (Stat (cur b (msg ())))
      done
    | 2 ->
      let u = unique () in
      let tmp = Printf.sprintf "%s/tmp/%s.host" (box b) u in
      let nw = Printf.sprintf "%s/new/%s.host" (box b) u in
      let c = Printf.sprintf "%s/cur/%s.host:2," (box b) u in
      emit (Create (0, tmp));
      emit (Close 0);
      emit (Rename (tmp, nw));
      emit (Stat nw);
      emit (Listdir (box b ^ "/new"));
      emit (Rename (nw, c));
      delivered.(b) <- c :: delivered.(b)
    | 3 -> (
      match delivered.(b) with
      | c :: rest ->
        emit (Unlink c);
        emit (Stat c);
        delivered.(b) <- rest
      | [] -> emit (Stat (box b ^ "/tmp/none")))
    | 4 ->
      let p = "/spool/tmp/" ^ unique () in
      emit (Create (1, p));
      emit (Close 1);
      emit (Stat p);
      emit (Unlink p);
      emit (Stat p)
    | 5 ->
      incr jobs;
      let d = Printf.sprintf "/jobs/j%d" !jobs in
      emit (Mkdir d);
      let fs = List.init 3 (fun i -> Printf.sprintf "%s/out%d" d i) in
      List.iter
        (fun p ->
          emit (Create (2, p));
          emit (Close 2))
        fs;
      List.iter (fun p -> emit (Stat p)) fs;
      List.iter (fun p -> emit (Unlink p)) fs;
      emit (Rmdir d);
      emit (Stat d)
    | 6 -> emit (Stat (cur b (msg ())))
    | _ -> emit (Stat (Printf.sprintf "%s/new/%s.host" (box b) base.(b).(msg ())))
  done;
  (* restore: expunge what was delivered, put every flag back *)
  Array.iter (List.iter (fun c -> emit (Unlink c))) delivered;
  for b = 0 to boxes - 1 do
    for i = 0 to msgs - 1 do
      if flags.(b).(i) <> orig.(b).(i) then begin
        let now = cur b i in
        flags.(b).(i) <- orig.(b).(i);
        emit (Rename (now, cur b i))
      end
    done
  done;
  let build proc =
    let made = ref [ "/mail"; "/spool"; "/spool/tmp"; "/jobs" ] in
    List.iter (fun d -> ok "mkdir" (S.mkdir_p proc d)) !made;
    for b = 0 to boxes - 1 do
      List.iter
        (fun sub ->
          let d = box b ^ sub in
          ok "mkdir" (S.mkdir_p proc d);
          made := d :: !made)
        [ "/cur"; "/new"; "/tmp" ];
      for i = 0 to msgs - 1 do
        ok "mail" (S.write_file proc (cur b i) (Printf.sprintf "Subject: %d\n\nbody\n" i));
        made := cur b i :: !made
      done
    done;
    !made
  in
  { name = "mutate-mix"; fs = Ram; max_dentries = 1 lsl 20; cache_pages = 0; build;
    pass = Array.of_list (List.rev !ops) }

let names = [ "warm-lookup"; "cold-tree"; "mutate-mix" ]

let make name ~seed =
  match name with
  | "warm-lookup" -> warm_lookup ~seed
  | "cold-tree" -> cold_tree ~seed
  | "mutate-mix" -> mutate_mix ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
