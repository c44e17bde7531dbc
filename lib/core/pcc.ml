open Dcache_vfs.Types
module Cred = Dcache_cred.Cred
module Trace = Dcache_util.Trace

(* Entries pack (dentry id, dentry seq) into one immediate int so that a
   concurrent reader can never observe a half-updated pair.  31 bits of id
   and 31 bits of seq leave the word well inside OCaml's 63-bit ints. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1
let seq_mask = (1 lsl 31) - 1
let pack id seq = ((id land id_mask) lsl 31) lor (seq land seq_mask)
let packed_id e = (e lsr 31) land id_mask
let packed_seq e = e land seq_mask

let ways = 4

(* Per-slot metadata byte: the reference bit, plus a 7-bit stamp of the
   entry's last touch (its fill, or a hit that refreshed it).  The stamp
   ticks once per [capacity / 16] fills, so 128 ticks span eight cache
   turnovers; an entry untouched for longer wraps around and merely looks
   young, which can only pick a worse victim, never a wrong answer.  Hits
   are decided by the packed word alone: the metadata steers replacement
   and nothing else.

   A referenced entry is protected for [grace] ticks (five turnovers) after
   its last touch, and a hit refreshes the stamp once it is half that old,
   so an entry hit at least every two turnovers stays protected while one
   whose dentry died (evicted from the dcache, never looked up again) ages
   back into the victim pool. *)
let referenced = 0x80
let stamp_mask = 0x7f
let grace = 80
let refresh = grace / 2

type table = {
  slots : int array;  (* 0 = empty *)
  meta : Bytes.t;
  sets : int;
  stamp_shift : int;
  mutable inserts : int;
}

type t = {
  mutable table : table;
  max_entries : int;  (* dynamic-growth ceiling; = capacity when static *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable displaced : int;  (* referenced entries evicted since the last growth *)
  mutable grow_count : int;
  (* Ids whose last [check] missed, direct-mapped: the [insert] that
     follows a miss is a demand fill and starts out referenced.  Written by
     unlocked readers; a lost or overwritten hint only costs a bit. *)
  demand : int array;
}

let demand_slots = 64

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let make_table entries =
  {
    slots = Array.make entries 0;
    meta = Bytes.make entries '\000';
    sets = entries / ways;
    stamp_shift = max 0 (log2 entries - 4);
    inserts = 0;
  }

let create ?max_entries ~entries () =
  let entries = next_pow2 (max 16 entries) 16 in
  let max_entries =
    match max_entries with
    | Some m -> next_pow2 (max entries m) entries
    | None -> entries
  in
  { table = make_table entries; max_entries; hit_count = 0; miss_count = 0;
    displaced = 0; grow_count = 0; demand = Array.make demand_slots (-1) }

let capacity t = Array.length t.table.slots
let grows t = t.grow_count

(* Two candidate sets per id (two-choice hashing): [set_a] is the primary,
   [set_b] (given [a = set_a table id]) an independent hash forced to
   differ, so every id has eight candidate slots in two distinct sets. *)
let set_a table id =
  let h = id * 0x2545F491 in
  (h lxor (h lsr 13)) land (table.sets - 1)

let set_b table id a =
  let h = id * 0x9E3779B97F4A7C1 in
  let b = (h lxor (h lsr 29)) land (table.sets - 1) in
  if b = a then a lxor 1 else b

(* Candidate [i] (0 .. 2*ways-1) of the set pair based at [a] and [b]. *)
let[@inline] cand a b i = if i < ways then a + i else b + i - ways

(* Slot indices are [set * ways + i] with [set < sets] and [i < ways], in
   bounds by construction, so the scans skip the bounds checks. *)
let[@inline] slot table s = Array.unsafe_get table.slots s
let[@inline] meta_of table s = Char.code (Bytes.unsafe_get table.meta s)
let[@inline] set_meta table s m = Bytes.set table.meta s (Char.unsafe_chr m)
let[@inline] now table = (table.inserts lsr table.stamp_shift) land stamp_mask

(* Ticks since the entry's last touch (the reference bit masks out). *)
let[@inline] age now m = (now - m) land stamp_mask

(* A [check] miss: counted, and its id remembered for the refill. *)
let miss t id =
  t.miss_count <- t.miss_count + 1;
  t.demand.(id land (demand_slots - 1)) <- id;
  false

(* The set scans are top-level recursions: [check] runs (twice, for
   literal and real dentries) on every fastpath probe, and a capturing
   local [rec] would allocate a closure per call.  An id occupies at most
   one slot, so a scan stops at the first id match; the second set's hash
   is computed only when the primary set ([sa]) does not hold the id.  Each
   slot is read once, so the id and seq compared come from the same
   word. *)
let rec check_scan t table id seq sa base i =
  if i >= ways then begin
    if base = sa * ways then check_scan t table id seq sa (set_b table id sa * ways) 0
    else miss t id
  end
  else begin
    let s = base + i in
    let e = slot table s in
    if e <> 0 && packed_id e = id then begin
      if packed_seq e = seq then begin
        t.hit_count <- t.hit_count + 1;
        (* Store only to set a clear reference bit or refresh an old
           stamp: a steady-state hit reads the byte and stores nothing. *)
        let m = meta_of table s and now = now table in
        if m land referenced = 0 || age now m >= refresh then set_meta table s (referenced lor now);
        true
      end
      else begin
        (* Stale version: the ancestor chain changed.  Drop the entry so
           the paper's directory-reference rule can rely on "most recent
           entry" semantics (§3.2). *)
        table.slots.(s) <- 0;
        Trace.bump_cause Trace.cause_seqcount_retry;
        Trace.stamp Trace.ev_pcc_stale id;
        miss t id
      end
    end
    else check_scan t table id seq sa base (i + 1)
  end

let check t d =
  let table = t.table in
  let id = d.d_id land id_mask in
  let sa = set_a table id in
  check_scan t table id (d.d_seq land seq_mask) sa (sa * ways) 0

(* Read-only prefix validation (§3.5): like [check], but perturbs nothing —
   no hit/miss accounting, no reference bit and no stale-entry drop.  The
   prefix-resume scan probes several ancestors per miss, most of which are
   expected to be absent, so counting them would skew the hit-rate
   figures; and it may run on the lockless tier, where dropping an entry is
   a mutation that belongs under the lock. *)
let rec probe_scan table id seq sa base i =
  if i >= ways then
    base = sa * ways && probe_scan table id seq sa (set_b table id sa * ways) 0
  else begin
    let e = slot table (base + i) in
    if e <> 0 && packed_id e = id then packed_seq e = seq
    else probe_scan table id seq sa base (i + 1)
  end

let probe t d =
  let table = t.table in
  let id = d.d_id land id_mask in
  let sa = set_a table id in
  probe_scan table id (d.d_seq land seq_mask) sa (sa * ways) 0

(* --- replacement (all under the caller's write lock) ---

   A victim's rank: an empty slot outranks everything, then entries by age
   (older first), a referenced one only once it is [grace] ticks old; a
   protected entry is no candidate (negative). *)
let[@inline] rank table now s e =
  if e = 0 then stamp_mask + 1
  else begin
    let m = meta_of table s in
    if m land referenced = 0 then age now m else age now m - grace
  end

let write table now s entry ref_bit =
  table.slots.(s) <- entry;
  set_meta table s (ref_bit lor now);
  table.inserts <- table.inserts + 1

(* All eight candidates of the pair at [a]/[b] are protected: one cuckoo
   step — move a resident to the best-ranked slot of its own other set,
   freeing the resident's slot — or else a second chance: clear the pair's
   reference bits and evict the oldest.  Returns whether a referenced
   entry was evicted.  A move writes the destination before the source is
   overwritten, so an unlocked reader can at worst miss the moving entry,
   never see a wrong one. *)
let evict table now entry ref_bit a b =
  let best = ref (-1) and best_rank = ref (-1) and from = ref (-1) in
  for i = 0 to (2 * ways) - 1 do
    let s = cand a b i in
    let rid = packed_id (slot table s) in
    let ra = set_a table rid in
    let other = (if ra = s / ways then set_b table rid ra else ra) * ways in
    if other <> a && other <> b then
      for j = other to other + ways - 1 do
        let r = rank table now j (slot table j) in
        if r > !best_rank then begin best := j; best_rank := r; from := s end
      done
  done;
  if !from >= 0 then begin
    table.slots.(!best) <- table.slots.(!from);
    set_meta table !best (meta_of table !from);
    write table now !from entry ref_bit;
    false
  end
  else begin
    let victim = ref a and oldest = ref (-1) in
    for i = 0 to (2 * ways) - 1 do
      let s = cand a b i in
      let m = meta_of table s land stamp_mask in
      set_meta table s m;
      if age now m > !oldest then begin victim := s; oldest := age now m end
    done;
    write table now !victim entry ref_bit;
    true
  end

(* Record [entry] in the pair at [a]/[b], in one scan of the eight
   candidates: overwrite the id's own slot, else take the best-ranked slot
   — empty, else the oldest unprotected entry of either set — else
   [evict].  Returns whether a referenced entry was evicted. *)
let place table entry ref_bit a b =
  let id = packed_id entry and now = now table in
  let own = ref (-1) and best = ref (-1) and best_rank = ref (-1) in
  for i = 0 to (2 * ways) - 1 do
    let s = cand a b i in
    let e = slot table s in
    if e <> 0 && packed_id e = id then own := s
    else begin
      let r = rank table now s e in
      if r > !best_rank then begin best := s; best_rank := r end
    end
  done;
  if !own >= 0 then begin
    table.slots.(!own) <- entry;
    false
  end
  else if !best >= 0 then begin
    write table now !best entry ref_bit;
    false
  end
  else evict table now entry ref_bit a b

(* Dynamic resizing (the paper leaves the policy as future work, §6.3):
   when second chances have evicted more than an eighth of the cache's
   worth of referenced entries since the last growth, the working set has
   outgrown the cache — double it.  Unreferenced evictions do not count,
   so a cold flood (a tree build, a one-off scan) never grows the table;
   only entries that were hit, or refilled after a miss, and still lost
   their slot do.  Growth re-places every entry with the same rule, under
   the caller's write lock. *)
let maybe_grow t =
  let cap = Array.length t.table.slots in
  if cap < t.max_entries && t.displaced > cap / 8 then begin
    let old = t.table in
    let bigger = make_table (cap * 2) in
    Array.iteri
      (fun s e ->
        if e <> 0 then begin
          let id = packed_id e in
          let a = set_a bigger id in
          ignore
            (place bigger e (meta_of old s land referenced) (a * ways)
               (set_b bigger id a * ways))
        end)
      old.slots;
    t.table <- bigger;
    t.displaced <- 0;
    t.grow_count <- t.grow_count + 1
  end

let insert t d =
  Trace.stamp Trace.ev_pcc_insert d.d_id;
  let table = t.table in
  let id = d.d_id land id_mask in
  let h = id land (demand_slots - 1) in
  let ref_bit =
    if t.demand.(h) = id then begin
      t.demand.(h) <- -1;
      referenced
    end
    else 0
  in
  let sa = set_a table id in
  if place table (pack id d.d_seq) ref_bit (sa * ways) (set_b table id sa * ways) then begin
    t.displaced <- t.displaced + 1;
    maybe_grow t
  end

let hits t = t.hit_count
let misses t = t.miss_count
let displaced t = t.displaced

(* --- per-credential storage (§4.1) --- *)

type Cred.slot += Pcc_slot of (int, t) Hashtbl.t

(* [of_cred] runs on every fastpath lookup, so the warm path must not
   allocate: the slot list is scanned by a top-level matcher (no closure, no
   [Some] wrapper) and the per-namespace table is probed with [Hashtbl.find]
   plus an exception branch rather than [find_opt].  Only the first lookup by
   a fresh credential (attach slot, create cache) allocates. *)
let rec slot_table = function
  | [] -> raise Not_found
  | Pcc_slot tbl :: _ -> tbl
  | _ :: rest -> slot_table rest

(* Non-creating variant for the lockless fastpath: creation mutates the
   credential's slot list and the per-cred Hashtbl, which only the locked
   paths may do.  Raises [Not_found] (caught by the probe, which retries
   under the read lock) instead of boxing an option, so the warm lockless
   hit stays allocation-free.  Racing a concurrent creator under the write
   lock is safe: [Cred.add_slot] publishes an immutable cons and a Hashtbl
   lookup that loses the race merely misses. *)
let of_cred_exn cred ns = Hashtbl.find (slot_table (Cred.slots cred)) ns.ns_id

let of_cred ?max_entries cred ns ~entries =
  let table =
    match slot_table (Cred.slots cred) with
    | tbl -> tbl
    | exception Not_found ->
      let tbl = Hashtbl.create 4 in
      Cred.add_slot cred (Pcc_slot tbl);
      tbl
  in
  match Hashtbl.find table ns.ns_id with
  | pcc -> pcc
  | exception Not_found ->
    let pcc = create ?max_entries ~entries () in
    Hashtbl.add table ns.ns_id pcc;
    pcc
