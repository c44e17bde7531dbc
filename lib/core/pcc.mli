(** Prefix Check Cache (paper §3.1, Fig. 5).

    Memoizes the result of {e passed} prefix (search-permission) checks per
    credential: an entry is a (dentry identity, dentry version) pair meaning
    "a process with these credentials completed a permission-checked walk to
    this dentry when its version counter was [seq]".  A probe hits only if
    the dentry's current version still matches, so any chmod/chown/rename of
    an ancestor (which bumps descendants' versions, §3.2) invalidates
    entries implicitly, without touching each PCC.

    Misses are {e not} cached: a miss means either "denied" or "not checked
    recently" and simply forces the slowpath (§3.1).

    The cache is an array of packed (id, seq) words in 4-way sets; each id
    hashes to two candidate sets and may live in either (two-choice
    hashing), so a working set below capacity is not thrown out by a few
    overfull sets.  Each slot carries a reference bit (set by a hit, or by
    the fill that follows a miss) and a last-touch stamp in a side byte; a
    referenced entry is protected until it has gone unhit for about five
    cache turnovers.  Replacement takes an empty slot, else the oldest
    unprotected entry of either set; when all eight candidates are
    protected it moves one resident to its other set, and only when that
    fails too does it clear their bits (a second chance) and evict the
    oldest.  Packed single-word entries make unsynchronized readers safe:
    a torn update or a concurrent move can only produce a miss, never a
    false hit. *)

open Dcache_vfs.Types

type t

val create : ?max_entries:int -> entries:int -> unit -> t
(** [entries] is rounded up to a power of two, minimum 16.  The paper's
    64 KB PCC corresponds to 4096 entries.  When [max_entries] exceeds
    [entries], the cache grows dynamically: the paper leaves the resize
    policy as future work (§6.3); ours doubles the table whenever second
    chances have evicted more than an eighth of the cache's worth of
    referenced entries since the last growth.  Unreferenced evictions (a
    cold flood of entries never looked up again) do not count. *)

val capacity : t -> int
val grows : t -> int
(** Number of dynamic growth steps performed. *)

val check : t -> dentry -> bool
(** True iff a valid (current-version) entry for [dentry] is present.  A
    hit sets the entry's reference bit if it is clear, or refreshes its
    stamp if it is old (a steady-state hit stores nothing); a miss drops a
    stale-version entry and remembers the id, so the [insert] that refills
    it starts out referenced.  Allocation-free. *)

val probe : t -> dentry -> bool
(** Read-only variant of {!check} for prefix validation (§3.5): same
    answer, but no hit/miss accounting, no reference bit and no stale-entry
    eviction, so it is safe on the lockless tier and does not skew
    statistics when a miss scan probes many absent ancestors.
    Allocation-free. *)

val insert : t -> dentry -> unit
(** Record a passed prefix check at the dentry's current version.  Runs
    under the dcache write lock. *)

val of_cred : ?max_entries:int -> Dcache_cred.Cred.t -> namespace -> entries:int -> t
(** The PCC shared by all processes holding this credential {e in this
    mount namespace} (§4.1, §4.3); created on first use and stored in the
    credential's security slot. *)

val of_cred_exn : Dcache_cred.Cred.t -> namespace -> t
(** Like {!of_cred} but never creates and never allocates; raises
    [Not_found] when this credential has no PCC for the namespace yet.
    The lockless fastpath uses it because creation is a mutation that
    belongs under the lock. *)

val hits : t -> int
val misses : t -> int

val displaced : t -> int
(** Referenced entries evicted since the last growth: the growth
    trigger's counter. *)
