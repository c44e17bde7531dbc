(* The kernel under test, assembled from public constructors: ramfs, or the
   simulated disk (Blockdev -> Pagecache -> Extfs -> Fs_overhead), with a
   counting and, when armed, span-recording wrapper around the Fs_intf.t
   record the kernel is mounted on. *)

module Clock = Dcache_util.Clock
module Fs = Dcache_fs.Fs_intf
module Vclock = Dcache_util.Vclock
module Blockdev = Dcache_storage.Blockdev
module Pagecache = Dcache_storage.Pagecache
module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module Config = Dcache_vfs.Config

(* fs call kinds: the index into [Tracer.counts] and the span name *)
let k_lookup = 0
let k_getattr = 1
let k_readdir = 2
let k_mutate = 3
let k_other = 4
let fs_kinds = [| "fs.lookup"; "fs.getattr"; "fs.readdir"; "fs.mutate"; "fs.other" |]

module Tracer = struct
  (* A span is [stride] ints: name, start, end, parent, op.  Names below
     [Array.length fs_kinds] are fs calls; the rest are syscall ops. *)
  let stride = 5

  type t = {
    counts : int array;  (** fs calls by kind, always counted *)
    mutable on : bool;  (** time fs calls and record spans *)
    mutable fs_ns : int;  (** fs time inside the current op *)
    mutable parent : int;  (** span id of the current op *)
    mutable op : int;
    spans : int array;
    mutable n : int;
    mutable dropped : int;
  }

  let create ~capacity =
    { counts = Array.make (Array.length fs_kinds) 0; on = false; fs_ns = 0; parent = -1;
      op = 0; spans = Array.make (capacity * stride) 0; n = 0; dropped = 0 }

  (* Reserve a span slot; -1 when the buffer is full. *)
  let open_span t name start parent =
    if (t.n + 1) * stride > Array.length t.spans then begin
      t.dropped <- t.dropped + 1;
      -1
    end
    else begin
      let id = t.n in
      let o = id * stride in
      t.spans.(o) <- name;
      t.spans.(o + 1) <- start;
      t.spans.(o + 2) <- start;
      t.spans.(o + 3) <- parent;
      t.spans.(o + 4) <- t.op;
      t.n <- id + 1;
      id
    end

  let close_span t id stop = if id >= 0 then t.spans.((id * stride) + 2) <- stop

  let enter t kind =
    t.counts.(kind) <- t.counts.(kind) + 1;
    if t.on then Clock.monotonic_ns () else 0

  let leave t kind t0 =
    if t.on then begin
      let t1 = Clock.monotonic_ns () in
      t.fs_ns <- t.fs_ns + (t1 - t0);
      close_span t (open_span t kind t0 t.parent) t1
    end
end

(* In the pattern of Fs_overhead.wrap; written out per field so an
   unarmed call allocates nothing. *)
let wrap tr (fs : Fs.t) =
  let open Tracer in
  {
    fs with
    lookup =
      (fun d n ->
        let t0 = enter tr k_lookup in
        let r = fs.lookup d n in
        leave tr k_lookup t0;
        r);
    getattr =
      (fun i ->
        let t0 = enter tr k_getattr in
        let r = fs.getattr i in
        leave tr k_getattr t0;
        r);
    setattr =
      (fun i c ->
        let t0 = enter tr k_mutate in
        let r = fs.setattr i c in
        leave tr k_mutate t0;
        r);
    readdir =
      (fun d ->
        let t0 = enter tr k_readdir in
        let r = fs.readdir d in
        leave tr k_readdir t0;
        r);
    create =
      (fun d n k m ~uid ~gid ->
        let t0 = enter tr k_mutate in
        let r = fs.create d n k m ~uid ~gid in
        leave tr k_mutate t0;
        r);
    symlink =
      (fun d n ~target ~uid ~gid ->
        let t0 = enter tr k_mutate in
        let r = fs.symlink d n ~target ~uid ~gid in
        leave tr k_mutate t0;
        r);
    link =
      (fun d n i ->
        let t0 = enter tr k_mutate in
        let r = fs.link d n i in
        leave tr k_mutate t0;
        r);
    unlink =
      (fun d n ->
        let t0 = enter tr k_mutate in
        let r = fs.unlink d n in
        leave tr k_mutate t0;
        r);
    rmdir =
      (fun d n ->
        let t0 = enter tr k_mutate in
        let r = fs.rmdir d n in
        leave tr k_mutate t0;
        r);
    rename =
      (fun od on nd nn ->
        let t0 = enter tr k_mutate in
        let r = fs.rename od on nd nn in
        leave tr k_mutate t0;
        r);
    readlink =
      (fun i ->
        let t0 = enter tr k_other in
        let r = fs.readlink i in
        leave tr k_other t0;
        r);
    read =
      (fun i ~off ~len ->
        let t0 = enter tr k_other in
        let r = fs.read i ~off ~len in
        leave tr k_other t0;
        r);
    write =
      (fun i ~off s ->
        let t0 = enter tr k_other in
        let r = fs.write i ~off s in
        leave tr k_other t0;
        r);
  }

type t = {
  kernel : Kernel.t;
  proc : Proc.t;
  tracer : Tracer.t;
  vclock : Vclock.t option;  (** [None] on ramfs: no virtual time is charged *)
  pagecache : Pagecache.t option;
  device : Blockdev.t option;
}

let create ?(lsms = []) ?(tracer = Tracer.create ~capacity:0) (w : Workload.t) config =
  let config = { config with Config.max_dentries = w.Workload.max_dentries } in
  match w.Workload.fs with
  | Workload.Ram ->
    let kernel = Kernel.create ~config ~lsms ~root_fs:(wrap tracer (Dcache_fs.Ramfs.create ())) () in
    { kernel; proc = Proc.spawn kernel; tracer; vclock = None; pagecache = None; device = None }
  | Workload.Disk ->
    let clock = Vclock.create () in
    let device = Blockdev.create clock in
    let cache = Pagecache.create ~capacity_pages:w.Workload.cache_pages device in
    let fs = Dcache_fs.Fs_overhead.wrap ~clock (Dcache_fs.Extfs.mkfs_and_mount cache) in
    let kernel = Kernel.create ~config ~lsms ~root_fs:(wrap tracer fs) () in
    { kernel; proc = Proc.spawn kernel; tracer; vclock = Some clock; pagecache = Some cache;
      device = Some device }

let virt_ns t = match t.vclock with None -> 0 | Some c -> Int64.to_int (Vclock.elapsed_ns c)
