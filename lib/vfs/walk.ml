open Dcache_types
open Types
module Lsm = Dcache_cred.Lsm
module Counter = Dcache_util.Stats.Counter
module Trace = Dcache_util.Trace
module Profiler = Dcache_util.Profiler

type ctx = {
  cred : Dcache_cred.Cred.t;
  root : path_ref;
  cwd : path_ref;
  ns : namespace;
  registry : Lsm.registry;
}

type mode = Rcu | Ref

type flags = { follow_last : bool; must_dir : bool; collect : bool }

let default_flags = { follow_last = true; must_dir = false; collect = false }
let nofollow_flags = { default_flags with follow_last = false }
let dir_flags = { default_flags with must_dir = true }
let nofollow_dir_flags = { follow_last = false; must_dir = true; collect = false }

type result_ = {
  outcome : (path_ref, Errno.t) result;
  visited : path_ref list;
  absolute : bool;
}

exception Need_refwalk

type parent_result = {
  parent : path_ref;
  last : string;
  child : dentry option;
  trailing_slash : bool;
  p_visited : path_ref list;
  p_absolute : bool;
}

let max_symlink_depth = 40

(* Internal control-flow exception carrying a definitive walk error. *)
exception Walk_error of Errno.t

(* Work items: path components, plus a marker that restores the literal
   alias chain after a spliced symlink target has been consumed (§4.2) —
   the target's own components are not part of the literal lookup path. *)
type item = Comp of Path.component | Resume_alias of dentry option

let items_of comps = List.map (fun c -> Comp c) comps

(* Trailing alias-resume markers do not count as remaining components. *)
let rec no_more_components = function
  | [] -> true
  | Resume_alias _ :: rest -> no_more_components rest
  | Comp _ :: _ -> false

let check_exec ctx inode =
  Lsm.permission ctx.registry ctx.cred (Inode.attr inode) Access.may_exec

let may_lookup ctx inode =
  let t0 = Phases.stamp () in
  let allowed = check_exec ctx inode in
  Phases.record_span Phases.Permission t0;
  if not allowed then raise (Walk_error Errno.EACCES)

(* Require a positive directory to descend into; promotes Partial dentries
   (readdir-cached children, §5.1) which mutates the cache, hence Ref-only. *)
let dir_inode_of mode d =
  match d.d_state with
  | Positive inode ->
    if Inode.is_dir inode then inode else raise (Walk_error Errno.ENOTDIR)
  | Partial { p_kind; _ } ->
    if not (File_kind.equal p_kind File_kind.Directory) then raise (Walk_error Errno.ENOTDIR)
    else if mode = Rcu then raise Need_refwalk
    else begin
      match Dcache.promote d with
      | Ok inode -> inode
      | Error e -> raise (Walk_error e)
    end
  | Negative e -> raise (Walk_error e)

let inode_of mode d =
  match d.d_state with
  | Positive inode -> Some inode
  | Partial _ ->
    if mode = Rcu then raise Need_refwalk
    else begin
      match Dcache.promote d with
      | Ok inode -> Some inode
      | Error e -> raise (Walk_error e)
    end
  | Negative _ -> None

(* Dot-dot: climb, exiting mounts at their roots, but never above the
   process root (the chroot barrier). *)
let rec follow_dotdot ctx (cur : path_ref) =
  if cur.dentry == ctx.root.dentry && cur.mnt == ctx.root.mnt then cur
  else begin
    match Mount.follow_up cur with
    | Some up -> follow_dotdot ctx up
    | None -> (
      match cur.dentry.d_parent with
      | Some parent -> { cur with dentry = parent }
      | None -> cur)
  end

(* Close-to-open consistency (§4.3): on a revalidating (stateless network)
   file system a cached hit must still be checked at the server; a stale
   entry is dropped and refilled. *)
let revalidate_hit mode t child =
  match child.d_sb.sb_fs.Dcache_fs.Fs_intf.revalidate with
  | None -> true
  | Some check -> (
    let ino =
      match child.d_state with
      | Positive inode -> Some (Inode.ino inode)
      | Partial { p_ino; _ } -> Some p_ino
      | Negative _ -> None
    in
    match ino with
    | None -> true (* stateless clients do not cache negatives *)
    | Some ino -> (
      Counter.bump (Dcache.cells t).netfs_revalidate;
      match check ino with
      | Ok true -> true
      | Ok false | Error _ ->
        if mode = Rcu then raise Need_refwalk;
        Counter.bump (Dcache.cells t).netfs_stale_dentry;
        (* A stale child proves the parent's cached listing diverged from
           the server; its completeness claim cannot survive, or the refill
           below would be answered ENOENT from the cache itself. *)
        (match child.d_parent with
        | Some parent -> Dcache.clear_complete parent
        | None -> ());
        Dcache.unhash t child;
        false))

(* The dcache probe + miss fill for one component. *)
let step mode t (cur : path_ref) name =
  let t0 = Phases.stamp () in
  let cached = Dcache.lookup t cur.dentry name in
  Phases.record_span Phases.Table_lookup t0;
  (* Per-mount negative invalidation: a negative earned under an older
     generation is a miss, and a Ref walk drops it so the refill below can
     re-earn the verdict (Rcu leaves the cleanup to the next Ref walk —
     treating the hit as a miss is already correct). *)
  let cached =
    match cached with
    | Some child when dentry_is_negative child && not (Dcache.negative_current child) ->
      if mode = Ref then begin
        Counter.bump (Dcache.cells t).walk_stale_negative;
        Dcache.unhash t child
      end;
      None
    | c -> c
  in
  match cached with
  | Some child when revalidate_hit mode t child ->
    if dentry_is_negative child then Counter.bump (Dcache.cells t).walk_negative_hit;
    Some child
  | Some _ (* stale and dropped: fall through to a fresh fill *)
  | None ->
    if Dcache.is_complete t cur.dentry then begin
      (* A complete directory answers misses definitively without consulting
         the file system (§5.1).  In Rcu mode skip caching the negative; the
         answer is still correct. *)
      Counter.bump (Dcache.cells t).complete_dir_negative;
      Trace.stamp Trace.ev_complete_neg 0;
      if !Profiler.armed then
        Profiler.hh_record cur.dentry.d_id cur.dentry.d_name Profiler.m_neg;
      if mode = Rcu then None
      else begin
        match Dcache.add_child t cur.dentry name (Negative Errno.ENOENT) with
        | Ok child -> Some child
        | Error _ -> None
      end
    end
    else begin
      if mode = Rcu then raise Need_refwalk;
      (* Counted in Ref mode only, or the Rcu attempt and its Ref replay
         would attribute the same miss twice. *)
      Trace.bump_cause Trace.cause_dir_incomplete;
      match Dcache.fill t cur.dentry name with
      | Ok child -> Some child
      | Error Errno.ENOENT -> None (* fs without negative caching *)
      | Error e -> raise (Walk_error e)
    end

(* Deep negative dentries (§5.2): after a definitive failure at [d], cache
   the remaining plain-name components as a chain of negative children so a
   repeat lookup of the full path can hit on the fastpath. *)
let build_deep_negatives mode t d errno rest ~record =
  if mode = Ref && (Dcache.config t).Config.deep_negative then begin
    let rec chain parent = function
      | [] -> ()
      | Comp (Path.Name name) :: more -> (
        match Dcache.lookup t parent name with
        | Some child ->
          if dentry_is_negative child then begin
            record child;
            chain child more
          end
        | None -> (
          match Dcache.add_child t parent name (Negative errno) with
          | Ok child ->
            Counter.bump (Dcache.cells t).deep_negative_created;
            record child;
            chain child more
          | Error _ -> ()))
      | (Comp (Path.Cur | Path.Up) | Resume_alias _) :: _ -> ()
    in
    chain d rest
  end

(* Symlink alias dentries (§4.2): under an alias parent, mirror the resolved
   component as a child whose [d_alias] redirects to the real dentry. *)
let get_or_make_alias mode t alias_parent name real =
  match Dcache.lookup t alias_parent name with
  | Some a ->
    if not (match a.d_alias with Some target -> target == real | None -> false) then begin
      if mode = Rcu then raise Need_refwalk;
      if dentry_is_negative a && not (dentry_is_negative real) then Dcache.neg_forget t a;
      let track = dentry_is_negative real && not (dentry_is_negative a) in
      a.d_alias <- Some real;
      a.d_state <- real.d_state;
      a.d_target_sig <- None;
      if track then Dcache.neg_track t a;
      Dcache.invalidate_structure t a |> ignore
    end;
    Some a
  | None ->
    if mode = Rcu then None
    else begin
      match Dcache.add_child t alias_parent name real.d_state with
      | Ok a ->
        a.d_alias <- Some real;
        Counter.bump (Dcache.cells t).symlink_alias_created;
        Some a
      | Error _ -> None
    end

let split_components config path =
  match Path.split path with
  | Ok comps ->
    if config.Config.dotdot = Config.Dotdot_lexical then Path.lexical_normalize comps
    else comps
  | Error e -> raise (Walk_error e)

let walk_internal mode t ctx ~flags ~stop_at_parent ?start_at path =
  let config = Dcache.config t in
  let cells = Dcache.cells t in
  Counter.bump cells.walk_slowpath;
  Trace.stamp Trace.ev_slowpath 0;
  let visited = ref [] in
  let push r = if flags.collect then visited := r :: !visited in
  (* A resumed walk is never "absolute", whatever its suffix text looks
     like: it starts at an interior directory reference, so population must
     apply the directory-reference rule against that start, not the root. *)
  let absolute =
    match start_at with Some _ -> false | None -> Path.is_absolute path
  in
  let trailing_slash = Path.has_trailing_slash path in
  let t0 = Phases.stamp () in
  let items = items_of (split_components config path) in
  Phases.record_span Phases.Scan_hash t0;
  let t0 = Phases.stamp () in
  let start =
    match start_at with
    | Some r -> r
    | None -> if absolute then Mount.traverse_mounts ctx.root else ctx.cwd
  in
  Phases.record_span Phases.Init t0;
  (* [alias] is the current literal dentry when the walk has passed through
     a symlink; [None] when literal = real. *)
  let rec loop (cur : path_ref) alias depth items =
    match items with
    | Resume_alias a :: rest -> loop cur a depth rest
    | [] ->
      if stop_at_parent then raise (Walk_error Errno.EINVAL)
      else begin
        let final_literal = match alias with Some a -> a | None -> cur.dentry in
        (match !visited with
        | hd :: _ when hd.dentry == final_literal -> ()
        | _ -> push { cur with dentry = final_literal });
        `Final cur
      end
    | Comp comp :: rest -> (
      let dir = dir_inode_of mode cur.dentry in
      may_lookup ctx dir;
      match comp with
      | Path.Cur -> loop cur alias depth rest
      | Path.Up -> loop (follow_dotdot ctx cur) None depth rest
      | Path.Name name ->
        if stop_at_parent && no_more_components rest then `Parent (cur, name)
        else handle_name cur alias depth name rest)
  and handle_name (cur : path_ref) alias depth name rest =
    (* Per-component accounting: lets the deepmiss benchmark verify that a
       prefix-resumed miss walks only the uncached suffix. *)
    Counter.bump cells.walk_components;
    let is_last = no_more_components rest in
    match step mode t cur name with
    | None ->
      (* Definitive miss, nothing cacheable. *)
      raise (Walk_error Errno.ENOENT)
    | Some child -> (
      match child.d_state with
      | Negative errno ->
        (* Record the negative leaf so the caller can publish it in the
           DLHT; chain deeper negatives for the remaining components. *)
        let literal =
          match alias with
          | Some ap -> get_or_make_alias mode t ap name child
          | None -> Some child
        in
        (match literal with Some l -> push { cur with dentry = l } | None -> ());
        build_deep_negatives mode t child errno rest
          ~record:(fun deep -> push { cur with dentry = deep });
        raise (Walk_error errno)
      | Partial _ | Positive _ -> (
        let inode = inode_of mode child in
        let inode = match inode with Some i -> i | None -> raise (Walk_error Errno.ENOENT) in
        match Inode.kind inode with
        | File_kind.Symlink when (not is_last) || flags.follow_last ->
          if depth + 1 > max_symlink_depth then raise (Walk_error Errno.ELOOP);
          let target =
            match Inode.symlink_target inode with
            | Ok target -> target
            | Error e -> raise (Walk_error e)
          in
          let target_items = items_of (split_components config target) in
          Counter.bump cells.symlink_resolved;
          (* Literal dentry standing for this symlink in the lookup path;
             the spliced target components are walked with no alias chain
             and the literal chain resumes afterwards. *)
          let symlink_literal =
            if config.Config.symlink_aliases then begin
              match alias with
              | Some ap -> get_or_make_alias mode t ap name child
              | None -> Some child
            end
            else None
          in
          let cur' =
            if Path.is_absolute target then Mount.traverse_mounts ctx.root else cur
          in
          loop cur' None (depth + 1)
            (target_items @ (Resume_alias symlink_literal :: rest))
        | kind ->
          if (not is_last) && not (File_kind.equal kind File_kind.Directory) then begin
            (* Looking *under* a non-directory: ENOTDIR, cacheable as deep
               ENOTDIR dentries (§5.2). *)
            build_deep_negatives mode t child Errno.ENOTDIR rest
              ~record:(fun deep -> push { cur with dentry = deep });
            raise (Walk_error Errno.ENOTDIR)
          end;
          let child_ref = Mount.traverse_mounts { mnt = cur.mnt; dentry = child } in
          let alias' =
            match alias with
            | Some ap -> get_or_make_alias mode t ap name child_ref.dentry
            | None -> None
          in
          (match alias' with
          | Some a -> push { mnt = child_ref.mnt; dentry = a }
          | None -> push child_ref);
          loop child_ref alias' depth rest))
  in
  let finished =
    (* Definitive failures must still surface the visited chain: negative
       leaves and deep negatives are published to the DLHT by the caller. *)
    try loop start None 0 items
    with Walk_error e when not stop_at_parent -> `Err e
  in
  match finished with
  | `Err e -> `Resolved { outcome = Error e; visited = List.rev !visited; absolute }
  | `Final cur ->
    let t0 = Phases.stamp () in
    let final =
      if flags.must_dir || trailing_slash then begin
        if dentry_is_dir cur.dentry then cur else raise (Walk_error Errno.ENOTDIR)
      end
      else cur
    in
    Phases.record_span Phases.Finalize t0;
    `Resolved { outcome = Ok final; visited = List.rev !visited; absolute }
  | `Parent (cur, name) ->
    (* Parent-style termination: [cur] is the containing directory; the
       child is looked up without following symlinks or crossing mounts. *)
    let child = step mode t cur name in
    `ParentOf
      {
        parent = cur;
        last = name;
        child;
        trailing_slash;
        p_visited = List.rev !visited;
        p_absolute = absolute;
      }

let resolve_in_mode mode t ctx ?(flags = default_flags) path =
  try
    match walk_internal mode t ctx ~flags ~stop_at_parent:false path with
    | `Resolved r -> r
    | `ParentOf _ -> assert false
  with Walk_error e -> { outcome = Error e; visited = []; absolute = Path.is_absolute path }

(* Prefix-resumed entry (§3.5): resolve [suffix] starting at [start_at] —
   the deepest DLHT-cached, PCC-validated ancestor of a missed path —
   instead of the root or cwd.  Ref mode only: the caller holds the write
   lock and has re-validated the ancestor under it (DLHT membership, PCC
   coverage, positive directory, invalidation counter) before trusting the
   shortcut.  The visited chain covers only the suffix components, and
   [absolute] is false, so the caller's population applies the
   directory-reference rule against [start_at]. *)
let resolve_resumed t ctx ?(flags = default_flags) ~start_at suffix =
  Counter.bump (Dcache.cells t).walk_resumed;
  try
    match walk_internal Ref t ctx ~flags ~stop_at_parent:false ~start_at suffix with
    | `Resolved r -> r
    | `ParentOf _ -> assert false
  with Walk_error e -> { outcome = Error e; visited = []; absolute = false }

(* Grouped resumed walks (§3.9): the batched slowpath's common shape is a
   run of misses that share a cached parent and differ only in the leaf —
   after the first miss in the group walks (and populates) the shared
   prefix, each remaining member needs exactly one dcache probe-or-fill
   under the parent, not a [walk_internal] invocation of its own.  This
   entry performs that single step: permission check on the parent, one
   {!step} for [name], mount traversal on the result.  It deliberately
   bumps neither "walk_slowpath" nor "walk_components" — the whole point
   is that no walk happens — and counts itself as "walk_resumed_sibling"
   so the grouping is visible in /proc.  Anything off the happy path
   (trailing symlink to follow) returns [`Bail], uncounted, and the caller
   falls back to {!resolve_resumed}, which counts it.  Ref mode only:
   caller holds the write lock and has re-validated [start_at] under it,
   exactly as for {!resolve_resumed}. *)
let resume_sibling t ctx ~start_at ~follow name =
  let outcome =
    try
      let dir = dir_inode_of Ref start_at.dentry in
      may_lookup ctx dir;
      match step Ref t start_at name with
      | None -> `Err Errno.ENOENT
      | Some child -> (
        match child.d_state with
        | Negative errno -> `Neg (child, errno)
        | Partial _ | Positive _ -> (
          match inode_of Ref child with
          | None -> `Err Errno.ENOENT
          | Some inode -> (
            match Inode.kind inode with
            | File_kind.Symlink when follow -> `Bail
            | _ -> `Child (Mount.traverse_mounts { mnt = start_at.mnt; dentry = child }))))
    with Walk_error e -> `Err e
  in
  (match outcome with
  | `Bail -> ()
  | `Err _ | `Neg _ | `Child _ -> Counter.bump (Dcache.cells t).walk_resumed_sibling);
  outcome

let resolve t ctx ?(flags = default_flags) path =
  match Dcache.with_read t (fun () -> resolve_in_mode Rcu t ctx ~flags path) with
  | result -> result
  | exception Need_refwalk ->
    Counter.bump (Dcache.cells t).walk_refwalk_fallback;
    Trace.bump_cause Trace.cause_seqcount_retry;
    Trace.stamp Trace.ev_refwalk 0;
    Dcache.with_write t (fun () -> resolve_in_mode Ref t ctx ~flags path)

let resolve_parent mode t ctx ?(collect = false) path =
  let flags = { default_flags with collect } in
  try
    match walk_internal mode t ctx ~flags ~stop_at_parent:true path with
    | `ParentOf p -> Ok p
    | `Resolved _ -> assert false
  with Walk_error e -> Error e
