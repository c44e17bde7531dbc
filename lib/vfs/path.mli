(** Path string handling. *)

val max_path : int
val max_name : int

type component = Cur  (** ["."] *) | Up  (** [".."] *) | Name of string

val split : string -> (component list, Dcache_types.Errno.t) result
(** Split on ['/'], dropping empty components; validates length limits.
    An empty path yields [ENOENT] per POSIX. *)

val count_components : string -> int
(** Number of non-empty runs of non-['/'] bytes — the per-lookup component
    tally of the paper's Table 1 (["."] and [".."] count).  No validation,
    no allocation. *)

val is_absolute : string -> bool
val has_trailing_slash : string -> bool

val lexical_normalize : component list -> component list
(** Plan 9 lexical dot-dot semantics (§4.2): [a/b/../c] -> [a/c], resolved
    purely textually.  Leading [..] components are preserved. *)

val join : string -> string -> string
(** [join dir rel]: concatenate with exactly one separator; absolute [rel]
    wins. *)
