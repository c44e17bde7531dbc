(* The closed-loop interpreter: runs one pass of a workload's op list
   against a kernel, timing every op with Clock.monotonic_ns (plus the
   virtual device time it charged) and recording its outcome into int
   arrays for comparison with the oracle. *)

open Workload
module S = Dcache_syscalls.Syscalls
module Batch = Dcache_syscalls.Batch
module Proc = Dcache_syscalls.Proc
module Errno = Dcache_types.Errno
module Attr = Dcache_types.Attr
module File_kind = Dcache_types.File_kind
module Access = Dcache_types.Access
module Clock = Dcache_util.Clock
module Tracer = Stack.Tracer

let now = Clock.monotonic_ns

(* Growable sample buffer. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* Outcome of each slot: [err] is 0 on success, else 1 + the errno's
   position; [a]/[b] are (ino, kind) for calls that resolve an inode,
   (entry count, name hash) for listings, (length, hash) for reads. *)
type outcome = { err : int array; a : int array; b : int array }

let errnos =
  Errno.
    [| EPERM; ENOENT; EIO; EBADF; EACCES; EBUSY; EEXIST; EXDEV; ENOTDIR; EISDIR; EINVAL; EMFILE;
       ENOSPC; EROFS; EMLINK; ERANGE; ENAMETOOLONG; ENOTEMPTY; ELOOP; ENOTSUP |]

let errno_code e =
  let rec go i = if errnos.(i) = e then i + 1 else go (i + 1) in
  go 0

let kind_code k = Char.code (File_kind.to_char k)

(* Slots whose [a] is an inode number, canonicalized before comparison. *)
let ino_slot = function
  | Stat _ | Lstat _ | Fstatat _ | Open _ | Open_dir _ | Openat_dir _ | Ring _ | Create _ -> true
  | _ -> false

let op_kinds =
  [| "sys.stat"; "sys.lstat"; "sys.access"; "sys.fstatat"; "sys.faccessat"; "sys.open";
     "sys.open_dir"; "sys.openat_dir"; "sys.read"; "sys.close"; "sys.chdir"; "sys.listdir";
     "sys.batch"; "sys.create"; "sys.unlink"; "sys.rename"; "sys.mkdir"; "sys.rmdir" |]

let op_kind = function
  | Stat _ -> 0 | Lstat _ -> 1 | Access _ -> 2 | Fstatat _ -> 3 | Faccessat _ -> 4 | Open _ -> 5
  | Open_dir _ -> 6 | Openat_dir _ -> 7 | Read _ -> 8 | Close _ -> 9 | Chdir _ -> 10
  | Listdir _ -> 11 | Ring _ -> 12 | Create _ -> 13 | Unlink _ -> 14 | Rename _ -> 15
  | Mkdir _ -> 16 | Rmdir _ -> 17

(* Latency samples by class, shared by every executor of a run. *)
type samples = {
  lookup : Buf.t;
  mutate : Buf.t;
  listing : Buf.t;
  kind_ns : int array;  (** latency sum by [op_kind] *)
  kind_n : int array;
}

let samples () =
  { lookup = Buf.create (); mutate = Buf.create (); listing = Buf.create ();
    kind_ns = Array.make (Array.length op_kinds) 0; kind_n = Array.make (Array.length op_kinds) 0 }

type t = {
  env : Stack.t;
  pass : op array;
  base : int array;  (** first outcome slot of each op *)
  slots : int;
  ino : bool array;  (** per slot *)
  regs : int array;
  batch : Batch.t;
  out : outcome;
  stable : (int, unit) Hashtbl.t;  (** inodes that keep their number across passes *)
  mutable record : bool;  (** collect latency samples *)
  samples : samples;
  mutable exns : int;
  mutable sys_self_ns : int;  (** traced: op time not spent in the fs *)
  mutable fs_span_ns : int;
  mutable batch_ns : int;
  mutable batch_ops : int;
  mutable listings : int;
}

let create ?(samples = samples ()) env pass =
  let n = Array.length pass in
  let base = Array.make n 0 in
  let slots = ref 0 in
  Array.iteri
    (fun i op ->
      base.(i) <- !slots;
      slots := !slots + Workload.slots op)
    pass;
  let ino = Array.make !slots false in
  Array.iteri
    (fun i op ->
      for s = base.(i) to base.(i) + Workload.slots op - 1 do
        ino.(s) <- ino_slot op
      done)
    pass;
  let out = { err = Array.make !slots 0; a = Array.make !slots 0; b = Array.make !slots 0 } in
  { env; pass; base; slots = !slots; ino; regs = Array.make registers (-1);
    batch = Batch.create ~cap:32 env.Stack.proc; out; stable = Hashtbl.create 1024;
    record = false; samples; exns = 0; sys_self_ns = 0; fs_span_ns = 0;
    batch_ns = 0; batch_ops = 0; listings = 0 }

(* Record the inode numbers of the paths the workload never replaces. *)
let note_stable t paths =
  List.iter
    (fun p ->
      match S.lstat t.env.Stack.proc p with
      | Ok a -> Hashtbl.replace t.stable a.Attr.ino ()
      | Error e -> failwith ("stable path " ^ p ^ ": " ^ Errno.to_string e))
    paths

let set t s e a b =
  t.out.err.(s) <- e;
  t.out.a.(s) <- a;
  t.out.b.(s) <- b

let err t s e = set t s (errno_code e) 0 0
let attr t s (x : Attr.t) = set t s 0 x.Attr.ino (kind_code x.Attr.kind)
let res_attr t s = function Ok x -> attr t s x | Error e -> err t s e
let res_unit t s = function Ok () -> set t s 0 0 0 | Error e -> err t s e

let res_fd t s reg = function
  | Ok fd ->
    t.regs.(reg) <- fd;
    let i = (Proc.find_fd_exn t.env.Stack.proc fd).Proc.fd_inode in
    set t s 0 (Dcache_vfs.Inode.ino i) (kind_code (Dcache_vfs.Inode.kind i))
  | Error e ->
    t.regs.(reg) <- -1;
    err t s e

let hash_names chunks =
  List.fold_left
    (List.fold_left (fun h (d : Dcache_fs.Fs_intf.dirent) -> (h + Hashtbl.hash d.name) land max_int))
    0 chunks

let rdonly = [ Proc.O_RDONLY ]
let rddir = [ Proc.O_RDONLY; Proc.O_DIRECTORY ]
let excl = [ Proc.O_WRONLY; Proc.O_CREAT; Proc.O_EXCL ]

let rec drain proc fd acc =
  match S.getdents proc fd 128 with
  | Ok [] -> Ok acc
  | Ok l -> drain proc fd (l :: acc)
  | Error e -> Error e

(* Run op [i]; returns its end time.  Outcome recording happens after the
   end time is read. *)
let run_op t i op =
  let p = t.env.Stack.proc and s = t.base.(i) in
  match op with
  | Stat path ->
    let r = S.stat p path in
    let t1 = now () in
    res_attr t s r;
    t1
  | Lstat path ->
    let r = S.lstat p path in
    let t1 = now () in
    res_attr t s r;
    t1
  | Access path ->
    let r = S.access p path Access.may_read in
    let t1 = now () in
    res_unit t s r;
    t1
  | Fstatat (reg, name) ->
    let r = S.fstatat p t.regs.(reg) name ~follow:false () in
    let t1 = now () in
    res_attr t s r;
    t1
  | Faccessat (reg, name) ->
    let r = S.faccessat p t.regs.(reg) name Access.may_read in
    let t1 = now () in
    res_unit t s r;
    t1
  | Open (reg, path) ->
    let r = S.openf p path rdonly in
    let t1 = now () in
    res_fd t s reg r;
    t1
  | Open_dir (reg, path) ->
    let r = S.openf p path rddir in
    let t1 = now () in
    res_fd t s reg r;
    t1
  | Openat_dir (reg, dreg, name) ->
    let r = S.openat p t.regs.(dreg) name rddir in
    let t1 = now () in
    res_fd t s reg r;
    t1
  | Create (reg, path) ->
    let r = S.openf p path excl in
    let t1 = now () in
    res_fd t s reg r;
    t1
  | Read reg ->
    let r = S.read p t.regs.(reg) 4096 in
    let t1 = now () in
    (match r with
    | Ok data -> set t s 0 (String.length data) (Hashtbl.hash data)
    | Error e -> err t s e);
    t1
  | Close reg ->
    let r = S.close p t.regs.(reg) in
    let t1 = now () in
    t.regs.(reg) <- -1;
    res_unit t s r;
    t1
  | Chdir path ->
    let r = S.chdir p path in
    let t1 = now () in
    res_unit t s r;
    t1
  | Listdir path ->
    let r =
      match S.openf p path rddir with
      | Error e -> Error e
      | Ok fd ->
        let r = drain p fd [] in
        ignore (S.close p fd);
        r
    in
    let t1 = now () in
    t.listings <- t.listings + 1;
    (match r with
    | Ok chunks -> set t s 0 (List.fold_left (fun n c -> n + List.length c) 0 chunks) (hash_names chunks)
    | Error e -> err t s e);
    t1
  | Ring paths ->
    let b = t.batch in
    Batch.reset b;
    for j = 0 to Array.length paths - 1 do
      ignore (Batch.push_lstat b paths.(j))
    done;
    Batch.submit b;
    let t1 = now () in
    for j = 0 to Array.length paths - 1 do
      if Batch.ok b j then attr t (s + j) (Batch.attr b j) else err t (s + j) (Batch.errno b j)
    done;
    t1
  | Unlink path ->
    let r = S.unlink p path in
    let t1 = now () in
    res_unit t s r;
    t1
  | Rename (a, b) ->
    let r = S.rename p a b in
    let t1 = now () in
    res_unit t s r;
    t1
  | Mkdir path ->
    let r = S.mkdir p path in
    let t1 = now () in
    res_unit t s r;
    t1
  | Rmdir path ->
    let r = S.rmdir p path in
    let t1 = now () in
    res_unit t s r;
    t1

(* One pass.  Wall times are multiplied by [scale] (see Calib); virtual
   device time is not.  Returns the sum of op latencies. *)
let pass ?(scale = 1.) t =
  let tr = t.env.Stack.tracer in
  let traced = tr.Tracer.on in
  let norm ns = int_of_float (scale *. float_of_int ns) in
  if traced then tr.Tracer.n <- 0;
  let total = ref 0 in
  for i = 0 to Array.length t.pass - 1 do
    let op = t.pass.(i) in
    let span =
      if traced then begin
        tr.Tracer.fs_ns <- 0;
        tr.Tracer.op <- i;
        Tracer.open_span tr (Array.length Stack.fs_kinds + op_kind op) 0 (-1)
      end
      else -1
    in
    let v0 = Stack.virt_ns t.env in
    let t0 = now () in
    if traced then begin
      tr.Tracer.parent <- span;
      if span >= 0 then tr.Tracer.spans.((span * Tracer.stride) + 1) <- t0
    end;
    let t1 =
      try run_op t i op
      with e ->
        t.exns <- t.exns + 1;
        set t t.base.(i) (-1) (Hashtbl.hash (Printexc.to_string e)) 0;
        now ()
    in
    let wall = t1 - t0 in
    let dt = norm wall + (Stack.virt_ns t.env - v0) in
    total := !total + dt;
    if traced then begin
      Tracer.close_span tr span t1;
      t.sys_self_ns <- t.sys_self_ns + norm (wall - tr.Tracer.fs_ns);
      t.fs_span_ns <- t.fs_span_ns + norm tr.Tracer.fs_ns
    end;
    if t.record then begin
      let sm = t.samples and k = op_kind op in
      sm.kind_ns.(k) <- sm.kind_ns.(k) + dt;
      sm.kind_n.(k) <- sm.kind_n.(k) + 1;
      match op with
      | Ring paths ->
        t.batch_ns <- t.batch_ns + norm wall;
        t.batch_ops <- t.batch_ops + Array.length paths;
        for _ = 1 to Array.length paths do
          Buf.add sm.lookup dt
        done
      | _ -> (
        match cls op with
        | Lookup -> Buf.add sm.lookup dt
        | Mutate -> Buf.add sm.mutate dt
        | Listing -> Buf.add sm.listing dt
        | Other -> ())
    end
  done;
  !total

(* Canonical copy of an outcome: inode numbers outside [stable] become
   their order of first appearance, so files created during a pass compare
   equal across kernels and passes. *)
let canonical t =
  let seen = Hashtbl.create 64 in
  let a =
    Array.mapi
      (fun s x ->
        if (not t.ino.(s)) || t.out.err.(s) <> 0 || Hashtbl.mem t.stable x then x
        else
          match Hashtbl.find_opt seen x with
          | Some c -> c
          | None ->
            let c = -(Hashtbl.length seen + 1) in
            Hashtbl.add seen x c;
            c)
      t.out.a
  in
  { err = Array.copy t.out.err; a; b = Array.copy t.out.b }

(* Number of slots whose outcome differs. *)
let mismatches (x : outcome) (y : outcome) =
  let n = ref 0 in
  for s = 0 to Array.length x.err - 1 do
    if x.err.(s) <> y.err.(s) || x.a.(s) <> y.a.(s) || x.b.(s) <> y.b.(s) then incr n
  done;
  !n
