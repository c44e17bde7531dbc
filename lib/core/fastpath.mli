(** The optimized lookup fastpath (paper §3).

    A lookup computes the signature of the full canonical path — resuming
    the hash from the starting directory's stored state for relative paths —
    probes the per-namespace {!Dlht} with it, and validates the result
    against the per-credential {!Pcc}.  A hit resolves any path in a
    constant number of hash-table operations; any miss (no DLHT entry, no
    valid PCC entry, unresolvable trailing symlink, ...) falls back to the
    ordinary component-at-a-time slowpath, whose successful prefix checks
    repopulate the DLHT and PCC for next time.

    Dot-dot components follow the configured semantics (§4.2), both
    handled in place by the one path scanner: Linux mode issues an extra
    fastpath sub-lookup per [..] to preserve permission semantics; Plan 9
    lexical mode pops the name a [..] cancels and rewinds the hash to the
    boundary before it (a [..] with no name to cancel takes the Linux
    sub-lookup). *)

open Dcache_vfs.Types
module Walk = Dcache_vfs.Walk

type t

val create : Dcache_vfs.Dcache.t -> t
(** Builds the fastpath state over a directory cache and installs the
    shootdown hook that keeps the DLHT coherent with evictions and
    invalidations.  The signature key is derived from the configuration's
    [hash_seed] (a boot-time random value in a real kernel). *)

val dcache : t -> Dcache_vfs.Dcache.t
val key : t -> Dcache_sig.Signature.key

val set_simulate_pcc_miss : t -> bool -> unit
(** Force every probe to miss in the PCC (and skip PCC repopulation): the
    paper's "fastpath miss + slowpath" worst case (Fig. 6). *)

val lookup_into :
  t ->
  Walk.ctx ->
  ?start:path_ref ->
  ?flags:Walk.flags ->
  string ->
  within:(mount -> dentry -> ('a, Dcache_types.Errno.t) result) ->
  ('a, Dcache_types.Errno.t) result
(** Resolve a path — fastpath probe, then slowpath-with-population
    fallback — and run [within] on the resolved location while the lookup
    is still protected, so the caller can pin the dentry or evaluate
    permissions without racing evictions.  [start] overrides the walk
    origin for relative paths (the *at() family); default is the context's
    cwd.  The warm probe is {e lockless}: it runs without the dcache lock,
    validated against the dcache-wide write sequence (and the stripes it
    read), and is retried lockless a bounded number of times when a
    concurrent write section invalidated it (RCU-walk → ref-walk, §3.2).
    A believed miss, state the lockless probe may not create, or exhausted
    retries go to the one write-locked resolver.  With the
    fastpath disabled in the configuration, this is the baseline kernel's
    two-phase (Rcu then Ref) slowpath.  Every syscall lookup resolves
    through this one entry point.

    The location reaches [within] as separate arguments, never a boxed
    [path_ref].  Callers pass [?flags]/[?start] as preallocated options
    where they can: a literal [~flags:f] boxes a [Some] per call.  On the
    default configuration a warm DLHT hit over a plain path — no ".."
    components, or under lexical semantics only ".." that cancel names —
    performs {e zero} minor-heap allocation and {e zero} rwlock
    acquisitions beyond what [within] itself does: the path is hashed in
    place from the raw string into per-domain scratch state, the bucket
    chain is walked intrusively, the probe is validated by one seqcount
    read, and counters and phase accounting are single stores.  [within]
    runs after validation but outside any lock on this tier, so its effects
    (pinning, permission evaluation) must tolerate being linearized just
    before any concurrent mutation — the same contract an open racing an
    unlink already has. *)

val probe_batch :
  t ->
  Walk.ctx ->
  n:int ->
  path:(int -> string) ->
  flags:(int -> Walk.flags) ->
  prepare:(int -> unit) ->
  within:(mount -> dentry -> ('a, Dcache_types.Errno.t) result) ->
  complete:(int -> ('a, Dcache_types.Errno.t) result -> unit) ->
  deferred:int array ->
  unit
(** Vectored probe (§3.9): resolve ops [0..n-1] with amortized
    validation.  The accessors ([path i], [flags i]) and the sinks
    ([prepare i] before op [i] touches shared scratch, [complete i r]
    with its result) must be allocated once per ring by the caller — the
    warm all-hit batch performs zero minor-heap allocation end to end.
    [deferred] is caller-owned scratch of length >= [n].

    Phase 1 probes every op locklessly under one shared seqcount window
    (re-snapshotting on a mid-batch bump — a "batch split"); each op's
    commit check validates the shared snapshot plus its own recorded
    stripes, which is strictly stronger than the sequential per-op
    window, so batched results always match the same ops issued
    sequentially at the same point.  Misses defer to phase 2: sorted by
    path and resolved under a single write-lock acquisition by the same
    resolver sequential lookups escalate to, with runs of single-component
    siblings resolved by one probe-or-fill each ({!Walk.resume_sibling}).
    Ops resolve relative to the context's cwd.  On the baseline
    configuration degrades to per-op sequential lookups. *)

val populate :
  t ->
  Walk.ctx ->
  visited:path_ref list ->
  absolute:bool ->
  start:path_ref ->
  unit
(** Publish a collected slowpath chain into the DLHT and PCC.  Must be
    called with the write side held — {!Dlht.insert} relies on it to skip
    stripe locks; respects the directory-reference gating rule for
    relative walks. *)

val ensure_hstate : t -> path_ref -> Dcache_sig.Signature.state
(** Resumable hash state of a location's canonical path, computing and
    caching it (and its ancestors') on first use. *)
