(** Direct Lookup Hash Table (paper §3.1, Fig. 4).

    A second, per-mount-namespace hash table that maps the {e signature of a
    full canonical path} straight to a dentry, so a warm lookup is one probe
    instead of a component-at-a-time walk.  Lazily populated after slowpath
    walks; entries are shot down on renames, mount changes and evictions.

    A dentry lives in at most one DLHT at a time — across namespaces and
    mount aliases — favouring locality and keeping invalidation tractable
    (§4.3).  The table is keyed by the signature's 22-bit bucket index
    masked to the current size; chains compare the 236 signature bits only
    (never the path string).

    Buckets are intrusive: the chain links live on the dentry itself
    ([d_dlht_next]/[d_dlht_prev]), so insert and remove are O(1) pointer
    splices and probes allocate nothing.

    The table resizes {e incrementally}: when the load factor crosses
    [grow_load] the bucket array doubles, and subsequent mutations migrate a
    few pre-resize buckets each by re-splicing their intrusive chains — no
    stop-the-world rehash.  Probes check the current table, then the
    pre-resize one while it drains.  Exclusive mutation (insert,
    migration, scrub) runs under the dcache write lock; with [stripes]
    attached, remove splices instead run under a per-stripe lock so
    sharded sections on several domains can shoot dentries down
    concurrently.  Lockless fastpath probes are
    validated against the dcache write sequence — plus the probed stripe's
    seqcount when sharded — by the caller. *)

open Dcache_vfs.Types
module Signature = Dcache_sig.Signature
module Locktab = Dcache_util.Locktab

type t

val of_namespace : ?stripes:int -> buckets:int -> grow_load:int -> namespace -> t
(** The namespace's table, created on first use (stored in [ns_ext]).
    [grow_load] is the entries-per-bucket threshold past which the table
    doubles; 0 keeps it fixed-size.  [stripes] (default 0 = none) attaches
    a sharded-mutation lock table, clamped to [buckets] so the stripe mask
    stays a submask of every table mask: a signature maps to the same
    stripe in the current and pre-resize tables, and one bucket never
    spans stripes.
    @raise Invalid_argument if [buckets] is not a positive power of two
    (the bucket index is computed by masking the signature's low bits). *)

val locktab : t -> Locktab.t option
(** The table's stripe locks, when sharded.  Readers index it with
    [Locktab.index tab (Signature.bucket s)] (or [Signature.buf_bucket])
    and record [Locktab.seq] snapshots before walking the chain; sharded
    writers must take the stripe around {!remove} — which it does
    internally — and nothing else. *)

val of_namespace_opt : namespace -> t option
(** The namespace's table if one has been created; never creates. *)

val of_namespace_exn : namespace -> t
(** Like {!of_namespace_opt} but raises [Not_found] instead of boxing an
    option — the allocation-free variant the lockless fastpath uses (it
    must neither allocate nor create, since creation is a mutation).  *)

val insert : t -> namespace -> dentry -> Signature.t -> unit
(** Publish [dentry] under [signature]; removes any previous membership
    (other signature or other namespace) first and records the membership
    on the dentry.  Call under the dcache write lock: it excludes every
    sharded section, and lockless probes validate against the global
    write sequence it bumps, so no stripe lock is taken.  Unsharded,
    advances any in-flight incremental resize and may start one; sharded,
    defers migration/growth to {!housekeep}. *)

val housekeep : t -> unit
(** Advance any in-flight incremental resize by one quantum and start one
    if the load factor calls for it.  The sharded-mode home for the
    migration/growth work {!insert}/{!remove} no longer do inline (a
    sharded section must stay within its own stripe).  Call under the
    dcache write lock. *)

val find : t -> key:Signature.key -> Signature.t -> dentry option
(** Probe; compares signatures per the key's configured width.  A hit
    returns the chain cell already holding the dentry — no allocation. *)

val find_buf : t -> key:Signature.key -> Signature.buf -> dentry option
(** Like {!find}, keyed by an in-place digest buffer (fastpath probes). *)

val remove : dentry -> unit
(** Remove [dentry] from whichever DLHT holds it (no-op when none).  O(1)
    splice; must be called while the dentry's signature still matches the
    one it was inserted under (the dcache's detach ordering guarantees
    this).  If the invariant is ever broken the removal degrades to a
    whole-table identity scan — counted by {!sigless_scans} and stamped as
    [ev_dlht_sigless_scan] so the degradation is never silent. *)

val population : t -> int
(** Exact number of entries currently in the table. *)

val resizing : t -> bool
(** An incremental resize is in flight (pre-resize buckets still drain). *)

val resizes : t -> int
(** Doublings since creation. *)

val sigless_scans : t -> int
(** Times {!remove} fell back to the defensive whole-table scan. *)

val stripe_migrations : t -> int
(** Old-table buckets drained by sharded sections under their own stripe
    (resize settling off the global write lock): each sharded splice drains
    its signature's pre-resize bucket in passing, which the stripe-submask
    invariant keeps inside the already-held stripe. *)

val settle : t -> unit
(** Complete any in-flight migration now.  Call under the dcache write
    lock; tests and benchmarks use it for deterministic occupancy. *)

type occupancy = {
  occ_entries : int;  (** chained entries (= {!population} when healthy) *)
  occ_buckets : int;  (** current (post-resize) bucket count *)
  occ_used : int;  (** buckets with at least one entry, both tables *)
  occ_longest : int;  (** longest chain, both tables *)
  occ_old_pending : int;  (** entries still awaiting migration *)
}

val occupancy : t -> occupancy
(** Walk every bucket and summarize load; diagnostics / bench reporting. *)

val self_check : t -> string list
(** Structural invariant check over the intrusive chains (prev/next
    consistency, membership marks, bucket placement, exact count, migration
    cursor); empty when healthy.  For tests. *)

type scrub_report = {
  scrub_scanned : int;  (** chained entries examined *)
  scrub_quarantined : int;  (** entries spliced out *)
  scrub_problems : string list;  (** one line per quarantined entry *)
}

val scrub : t -> scrub_report
(** Integrity pass that {e repairs}: every chained entry whose links,
    membership mark or signature disagree with the table is quarantined —
    removed from its bucket and stripped of DLHT membership — instead of
    being left to answer probes for the wrong path.  The dentry itself
    stays in the dcache; a later slowpath walk republishes it if healthy.
    Call under the dcache write lock. *)
