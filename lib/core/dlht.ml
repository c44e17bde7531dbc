open Dcache_vfs.Types
module Signature = Dcache_sig.Signature
module Trace = Dcache_util.Trace
module Locktab = Dcache_util.Locktab

(* Buckets are intrusive singly-headed doubly-linked chains threaded through
   the dentries themselves ([d_dlht_next] / [d_dlht_prev]): insert and remove
   are O(1) pointer splices with no per-entry cons cells, so table churn
   (renames, mount-alias re-signatures, evictions) never allocates.  The
   chain fields can live on the dentry because a dentry is in at most one
   DLHT at a time (§4.3).

   Invariant relied on by head removal: while a dentry is in the table its
   [d_sig] holds the signature it was inserted under (membership is removed
   before the signature changes — Dcache.detach/shootdown ordering), so the
   owning bucket is always recomputable.

   --- incremental resize ---

   The table doubles when [count / buckets] crosses [grow_load], without a
   stop-the-world rehash: the current bucket array is demoted to [old], a
   fresh, twice-as-large array becomes [tbl], and every subsequent mutation
   migrates [migrate_quantum] old buckets by re-splicing their chains into
   [tbl] (the signature is stable while chained, so the new slot is just a
   re-mask).  Inserts always go to [tbl]; probes check [tbl] first, then
   [old].  Between two doublings at load factor L, at least L * buckets
   inserts must happen while only [buckets] old buckets need migration, so
   with [migrate_quantum] >= 1 a resize always completes before the next
   one can start — [old] is None again by then, which [maybe_grow] requires.

   Lockless readers: exclusive mutation (resize migration, scrub, legacy
   write sections) runs under the dcache write lock, which brackets the
   dcache-wide write sequence; sharded mutation splices under per-stripe
   locks whose seqcounts the reader records before walking the chain.  An
   optimistic probe that overlaps either kind of write section fails its
   validation and retries, so probes never need the old/new split to be
   atomic — they only need racy chain walks to be crash-free (single-field
   reads of immediate ints and pointers) and finite, which the scan fuel
   guarantees even across transiently inconsistent splices.

   --- stripe locks ---

   With [stripes] attached, every [remove] splice — sharded sections shoot
   dentries down — runs under the stripe for the signature's 22-bit
   bucket index masked to the stripe count; [insert] runs only under the
   dcache write lock, which excludes every stripe holder.  The stripe
   count never exceeds the initial bucket count and
   tables only grow, so the stripe mask is a submask of every table mask:
   one signature maps to the same stripe in both tables, a whole bucket
   lives inside one stripe, and a bucket's migration re-splice stays
   within its own stripe.  Inline migration/growth is deferred in sharded
   mode — a sharded section must not touch buckets outside its stripe —
   and runs via [housekeep] from the exclusive write sections instead. *)

type table = { buckets : dentry option array; mask : int }

type t = {
  mutable tbl : table;  (** current table; inserts and first probes land here *)
  mutable old : table option;  (** pre-resize table still being drained *)
  mutable migrate_idx : int;  (** next [old] bucket to migrate *)
  grow_load : int;  (** entries per bucket before doubling; 0 = fixed size *)
  mutable resize_count : int;
  sigless_scans : int Atomic.t;
      (** times [remove] had to fall back to a whole-table identity scan *)
  stripe_migrations : int Atomic.t;
      (** old-table buckets drained by sharded sections under their own
          stripe (resize settling off the global write lock) *)
  ns : namespace;
  count : int Atomic.t;
  stripes : Locktab.t option;  (** sharded-mutation stripe locks; None = legacy *)
}

type ns_ext += Dlht_ext of t

(* A racy (lockless) chain walk can observe transiently inconsistent links
   while a writer splices; the fuel bound turns a would-be infinite walk
   into a miss, which the caller's seqcount validation then converts into a
   locked retry.  Far above any legitimate chain length (load factor is
   bounded by [grow_load] once resize is on, and even the fixed-size table
   needs 2^12 entries per bucket to get near it). *)
let scan_fuel = 4096

(* Old buckets migrated per mutation; >= 1 guarantees completion between
   doublings (see above), 4 keeps the drain an order of magnitude ahead. *)
let migrate_quantum = 4

let max_buckets = 1 lsl 22

let make_table buckets = { buckets = Array.make buckets None; mask = buckets - 1 }

let of_namespace_opt ns =
  match ns.ns_ext with Some (Dlht_ext t) -> Some t | Some _ | None -> None

let of_namespace_exn ns =
  match ns.ns_ext with Some (Dlht_ext t) -> t | Some _ | None -> raise Not_found

let of_namespace ?(stripes = 0) ~buckets ~grow_load ns =
  match ns.ns_ext with
  | Some (Dlht_ext t) -> t
  | Some _ | None ->
    if buckets <= 0 || buckets land (buckets - 1) <> 0 then
      invalid_arg "Dlht.of_namespace: bucket count must be a positive power of two";
    let t =
      {
        tbl = make_table buckets;
        old = None;
        migrate_idx = 0;
        grow_load;
        resize_count = 0;
        sigless_scans = Atomic.make 0;
        stripe_migrations = Atomic.make 0;
        ns;
        count = Atomic.make 0;
        stripes =
          (* Clamp to the initial bucket count so the stripe mask stays a
             submask of every (only ever growing) table mask. *)
          (if stripes > 0 then Some (Locktab.create (Stdlib.min stripes buckets))
           else None);
      }
    in
    ns.ns_ext <- Some (Dlht_ext t);
    t

let locktab t = t.stripes

let bucket_in tbl signature = Signature.bucket signature land tbl.mask

let resizing t = t.old <> None
let resizes t = t.resize_count
let sigless_scans t = Atomic.get t.sigless_scans
let stripe_migrations t = Atomic.get t.stripe_migrations

(* Splice [d] in as the head of [tbl]'s bucket for [signature]. *)
let splice tbl d signature =
  let idx = bucket_in tbl signature in
  let head = tbl.buckets.(idx) in
  let cell = Some d in
  d.d_dlht_next <- head;
  d.d_dlht_prev <- None;
  (match head with Some h -> h.d_dlht_prev <- cell | None -> ());
  tbl.buckets.(idx) <- cell

(* Re-splice one old bucket's chain into the current table and empty it.
   The chain's entries all share the bucket index, so in sharded mode the
   whole drain stays inside the bucket's stripe. *)
let drain_bucket t old i =
  let rec drain cell =
    match cell with
    | None -> ()
    | Some d ->
      let next = d.d_dlht_next in
      (match d.d_sig with
      | Some signature -> splice t.tbl d signature
      | None ->
        (* Chained with no signature: cannot be re-placed, and a probe
           could never have matched it anyway.  Quarantine, as scrub
           would. *)
        d.d_dlht_next <- None;
        d.d_dlht_prev <- None;
        d.d_dlht_ns <- None;
        Atomic.decr t.count;
        Trace.bump_cause Trace.cause_quarantined;
        Trace.stamp Trace.ev_quarantine d.d_id);
      drain next
  in
  drain old.buckets.(i);
  old.buckets.(i) <- None

(* Migrate up to [n] old buckets into the current table.  Caller holds the
   dcache write lock (like every mutator here). *)
let migrate_some t n =
  match t.old with
  | None -> ()
  | Some old ->
    let total = Array.length old.buckets in
    let stop = Stdlib.min total (t.migrate_idx + n) in
    let i = ref t.migrate_idx in
    while !i < stop do
      drain_bucket t old !i;
      incr i
    done;
    t.migrate_idx <- stop;
    if stop = total then begin
      t.old <- None;
      Trace.stamp Trace.ev_dlht_resize_end (Array.length t.tbl.buckets)
    end

(* Resize settling on the stripe table: a sharded splice already holds the
   stripe covering [signature]'s bucket in {e both} tables (the stripe mask
   is a submask of every table mask), so it drains the signature's old
   bucket in passing — migration proceeds under stripe locks instead of
   waiting for an exclusive section.  The cursor sweep in [migrate_some]
   later finds these buckets empty; the [old <- None] completion and the
   table swap themselves remain exclusive ([housekeep]), and that residue
   is what /proc/dcache/stripes' global-acquisition counter tracks. *)
let settle_in_stripe t signature =
  match t.old with
  | None -> ()
  | Some old -> (
    let i = bucket_in old signature in
    match old.buckets.(i) with
    | None -> ()
    | Some _ ->
      drain_bucket t old i;
      Atomic.incr t.stripe_migrations)

let settle t = migrate_some t max_int

let maybe_grow t =
  match t.old with
  | Some _ -> ()
  | None ->
    let buckets = Array.length t.tbl.buckets in
    if
      t.grow_load > 0 && buckets < max_buckets
      && Atomic.get t.count > buckets * t.grow_load
    then begin
      t.old <- Some t.tbl;
      t.migrate_idx <- 0;
      t.resize_count <- t.resize_count + 1;
      t.tbl <- make_table (buckets * 2);
      Trace.stamp Trace.ev_dlht_resize_begin (buckets * 2)
    end

(* Clear [d] from the head slot it owns, consulting both tables and
   verifying head identity before writing (never blindly overwrite a slot a
   stale signature merely points at).  Returns false when neither table's
   candidate slot is headed by [d]. *)
let clear_head t d next =
  match d.d_sig with
  | None -> false
  | Some signature -> (
    let tbl = t.tbl in
    let idx = bucket_in tbl signature in
    match tbl.buckets.(idx) with
    | Some h when h == d ->
      tbl.buckets.(idx) <- next;
      true
    | _ -> (
      match t.old with
      | None -> false
      | Some old -> (
        let oidx = bucket_in old signature in
        match old.buckets.(oidx) with
        | Some h when h == d ->
          old.buckets.(oidx) <- next;
          true
        | _ -> false)))

(* Defensive only — the detach ordering makes this unreachable.  Find the
   slot by identity so [count] stays exact even if the invariant is ever
   broken, and make the degradation loud: it is an O(buckets) scan on what
   should be an O(1) splice. *)
let scan_out_head t d next =
  Atomic.incr t.sigless_scans;
  Trace.stamp Trace.ev_dlht_sigless_scan d.d_id;
  let clear_in tbl =
    let n = Array.length tbl.buckets in
    let i = ref 0 in
    let found = ref false in
    while (not !found) && !i < n do
      (match tbl.buckets.(!i) with
      | Some h when h == d ->
        tbl.buckets.(!i) <- next;
        found := true
      | _ -> ());
      incr i
    done;
    !found
  in
  if not (clear_in t.tbl) then
    match t.old with Some old -> ignore (clear_in old) | None -> ()

let remove_splice t d =
  let next = d.d_dlht_next in
  let prev = d.d_dlht_prev in
  (match prev with
  | Some p -> p.d_dlht_next <- next
  | None ->
    (* Head of its bucket: recompute the slot from the signature (stable
       while the dentry is in the table; see invariant above). *)
    if not (clear_head t d next) then scan_out_head t d next);
  (match next with Some n -> n.d_dlht_prev <- prev | None -> ());
  d.d_dlht_next <- None;
  d.d_dlht_prev <- None;
  Atomic.decr t.count

let remove_from t d =
  match t.stripes with
  | None ->
    migrate_some t migrate_quantum;
    remove_splice t d
  | Some tab -> (
    match d.d_sig with
    | Some signature ->
      let i = Locktab.index tab (Signature.bucket signature) in
      Locktab.with_lock tab i (fun () ->
          settle_in_stripe t signature;
          remove_splice t d)
    | None ->
      (* Chained with no signature only happens when the detach ordering is
         broken, which only exclusive (write-locked) callers can do — the
         whole-table identity scan below is not stripe-safe anyway, so run
         it unlocked exactly as the legacy path would. *)
      remove_splice t d)

let remove d =
  match d.d_dlht_ns with
  | None -> ()
  | Some ns ->
    (match ns.ns_ext with Some (Dlht_ext t) -> remove_from t d | Some _ | None -> ());
    d.d_dlht_ns <- None;
    Trace.stamp Trace.ev_dlht_remove d.d_id

(* Every insert comes from an exclusive section: the caller holds the
   dcache write lock, which excludes every sharded section (they all hold
   the read side), and lockless probes validate against the global write
   sequence that section bumps — so no stripe lock is taken, for the
   splice or for dropping a previous membership. *)
let insert t ns d signature =
  (match d.d_dlht_ns with
  | None -> ()
  | Some old_ns ->
    (match old_ns.ns_ext with Some (Dlht_ext o) -> remove_splice o d | Some _ | None -> ());
    d.d_dlht_ns <- None;
    Trace.stamp Trace.ev_dlht_remove d.d_id);
  (match t.stripes with
  | None -> migrate_some t migrate_quantum
  | Some _ -> ());
  splice t.tbl d signature;
  Atomic.incr t.count;
  d.d_dlht_ns <- Some ns;
  (match t.stripes with
  | None -> maybe_grow t
  | Some _ -> () (* migration/growth deferred to [housekeep] *));
  Trace.stamp Trace.ev_dlht_insert d.d_id

(* Sharded-mode replacement for the migration/growth work that [insert] and
   [remove] no longer do inline (a sharded section must not touch buckets
   outside its own stripe).  Called from exclusive write sections — the
   fastpath's populate — which exclude every sharded section. *)
let housekeep t =
  migrate_some t migrate_quantum;
  maybe_grow t

(* Both probes return the chain cell that already holds the match ([Some d as
   cell]) instead of rebuilding it, so a hit allocates nothing.  The chain
   scanners are top-level (not local closures over [key]/[signature]): a
   capturing local function would allocate its closure on every probe.
   During a resize the probe checks the current table first, then the
   pre-resize one; a miss in both on a lockless probe is re-checked by the
   caller's seqcount validation before it is believed. *)

let rec scan_chain key signature cell fuel =
  if fuel = 0 then None
  else begin
    match cell with
    | None -> None
    | Some d as found -> (
      match d.d_sig with
      | Some s when Signature.equal key s signature -> found
      | Some _ | None -> scan_chain key signature d.d_dlht_next (fuel - 1))
  end

let find t ~key signature =
  let tbl = t.tbl in
  match scan_chain key signature tbl.buckets.(bucket_in tbl signature) scan_fuel with
  | Some _ as hit -> hit
  | None -> (
    match t.old with
    | None -> None
    | Some old ->
      scan_chain key signature old.buckets.(bucket_in old signature) scan_fuel)

let rec scan_chain_buf key b cell fuel =
  if fuel = 0 then None
  else begin
    match cell with
    | None -> None
    | Some d as found -> (
      match d.d_sig with
      | Some s when Signature.equal_buf key b s -> found
      | Some _ | None -> scan_chain_buf key b d.d_dlht_next (fuel - 1))
  end

let find_buf t ~key b =
  let tbl = t.tbl in
  match scan_chain_buf key b tbl.buckets.(Signature.buf_bucket b land tbl.mask) scan_fuel with
  | Some _ as hit -> hit
  | None -> (
    match t.old with
    | None -> None
    | Some old ->
      scan_chain_buf key b old.buckets.(Signature.buf_bucket b land old.mask) scan_fuel)

let population t = Atomic.get t.count

type occupancy = {
  occ_entries : int;
  occ_buckets : int;
  occ_used : int;
  occ_longest : int;
  occ_old_pending : int;
}

let rec chain_length acc = function
  | None -> acc
  | Some d -> chain_length (acc + 1) d.d_dlht_next

let occupancy t =
  let entries = ref 0 and used = ref 0 and longest = ref 0 in
  let sweep tbl =
    Array.iter
      (fun head ->
        let len = chain_length 0 head in
        if len > 0 then begin
          incr used;
          entries := !entries + len;
          if len > !longest then longest := len
        end)
      tbl.buckets
  in
  sweep t.tbl;
  let in_new = !entries in
  (match t.old with Some old -> sweep old | None -> ());
  {
    occ_entries = !entries;
    occ_buckets = Array.length t.tbl.buckets;
    occ_used = !used;
    occ_longest = !longest;
    occ_old_pending = !entries - in_new;
  }

let self_check t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let entries = ref 0 in
  let check_table label tbl =
    Array.iteri
      (fun idx head ->
        (match head with
        | Some h when h.d_dlht_prev <> None ->
          note "%s bucket %d: head %s has a predecessor" label idx h.d_name
        | _ -> ());
        let rec walk prev = function
          | None -> ()
          | Some d ->
            incr entries;
            (match (prev, d.d_dlht_prev) with
            | None, _ -> ()
            | Some p, Some q when q == p -> ()
            | Some _, _ -> note "%s bucket %d: %s has a broken prev link" label idx d.d_name);
            (match d.d_dlht_ns with
            | Some ns when ns == t.ns -> ()
            | _ -> note "%s bucket %d: %s is chained but not marked as a member" label idx d.d_name);
            (match d.d_sig with
            | Some s when bucket_in tbl s = idx -> ()
            | Some _ -> note "%s bucket %d: %s is chained in the wrong bucket" label idx d.d_name
            | None -> note "%s bucket %d: %s is chained with no signature" label idx d.d_name);
            walk (Some d) d.d_dlht_next
        in
        walk None head)
      tbl.buckets
  in
  check_table "tbl" t.tbl;
  (match t.old with
  | None -> ()
  | Some old ->
    check_table "old" old;
    (* Buckets the migration cursor has passed must be empty. *)
    for i = 0 to Stdlib.min t.migrate_idx (Array.length old.buckets) - 1 do
      match old.buckets.(i) with
      | Some d -> note "old bucket %d: %s left behind the migration cursor" i d.d_name
      | None -> ()
    done);
  if !entries <> Atomic.get t.count then
    note "population: counted %d chained entries but count = %d" !entries
      (Atomic.get t.count);
  List.rev !problems

(* --- scrub ---

   Where [self_check] reports inconsistencies, [scrub] removes them: an
   entry whose chain links, membership mark or signature disagree with the
   table must not be served (a probe could return a dentry for the wrong
   path), so it is quarantined — spliced out and stripped of membership.
   The dentry itself stays cached; the slowpath re-resolves and, if the
   dentry is healthy, republishes it. *)

type scrub_report = {
  scrub_scanned : int;
  scrub_quarantined : int;
  scrub_problems : string list;
}

(* Splice [d] out of bucket [idx] of [tbl] by identity: the quarantined
   entry's signature and prev link are exactly what we cannot trust, so
   re-walk the chain from the head instead of using [remove_from]. *)
let unchain t tbl idx d =
  let rec fix prev cell =
    match cell with
    | None -> ()
    | Some x when x == d -> (
      let next = d.d_dlht_next in
      (match prev with
      | None -> tbl.buckets.(idx) <- next
      | Some p -> p.d_dlht_next <- next);
      match next with Some n -> n.d_dlht_prev <- prev | None -> ())
    | Some x -> fix (Some x) x.d_dlht_next
  in
  fix None tbl.buckets.(idx);
  d.d_dlht_next <- None;
  d.d_dlht_prev <- None;
  d.d_dlht_ns <- None;
  Atomic.decr t.count

let scrub t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let scanned = ref 0 in
  let bad = ref [] in
  let scan_table tbl =
    Array.iteri
      (fun idx head ->
        let rec walk prev = function
          | None -> ()
          | Some d ->
            incr scanned;
            let prev_ok =
              match (prev, d.d_dlht_prev) with
              | None, None -> true
              | Some p, Some q -> q == p
              | None, Some _ | Some _, None -> false
            in
            let member_ok = match d.d_dlht_ns with Some ns -> ns == t.ns | None -> false in
            let sig_ok = match d.d_sig with Some s -> bucket_in tbl s = idx | None -> false in
            if not (prev_ok && member_ok && sig_ok) then begin
              note "bucket %d: quarantined %s (%s)" idx d.d_name
                (if not sig_ok then "signature/bucket mismatch"
                 else if not member_ok then "membership mark"
                 else "broken prev link");
              bad := (tbl, idx, d) :: !bad
            end;
            walk (Some d) d.d_dlht_next
        in
        walk None head)
      tbl.buckets
  in
  scan_table t.tbl;
  (match t.old with Some old -> scan_table old | None -> ());
  List.iter
    (fun (tbl, idx, d) ->
      unchain t tbl idx d;
      Trace.bump_cause Trace.cause_quarantined;
      Trace.stamp Trace.ev_quarantine d.d_id)
    !bad;
  {
    scrub_scanned = !scanned;
    scrub_quarantined = List.length !bad;
    scrub_problems = List.rev !problems;
  }
