(** Per-syscall-class time accounting (reproduces paper Fig. 1).

    When enabled, each path-based syscall's wall time is accumulated under
    its class; workloads compare the per-class totals against their total
    run time to compute the fraction spent in path-based system calls.

    Same stamp style as {!Dcache_vfs.Phases}: a syscall takes [stamp ()]
    on entry and charges [record_span clazz t0] on exit — no closure per
    call, native-int nanoseconds, and one branch each when disabled. *)

type clazz = Access_stat | Open | Chmod_chown | Unlink | Other_path

let all = [ Access_stat; Open; Chmod_chown; Unlink; Other_path ]

let name = function
  | Access_stat -> "access/stat"
  | Open -> "open"
  | Chmod_chown -> "chmod/chown"
  | Unlink -> "unlink"
  | Other_path -> "other path-based"

let index = function
  | Access_stat -> 0
  | Open -> 1
  | Chmod_chown -> 2
  | Unlink -> 3
  | Other_path -> 4

let enabled = ref false
let acc = Array.make 5 0
let counts = Array.make 5 0

let reset () =
  Array.fill acc 0 5 0;
  Array.fill counts 0 5 0

let[@inline] stamp () = if !enabled then Dcache_util.Clock.now_int_ns () else 0

let record_span clazz t0 =
  if !enabled then begin
    let i = index clazz in
    acc.(i) <- acc.(i) + (Dcache_util.Clock.now_int_ns () - t0);
    counts.(i) <- counts.(i) + 1
  end

let totals () = List.map (fun c -> (c, Int64.of_int acc.(index c), counts.(index c))) all
let total_path_ns () = Int64.of_int (Array.fold_left ( + ) 0 acc)
