open Dcache_types

let max_path = 4096
let max_name = 255

type component = Cur | Up | Name of string

let split path =
  if String.length path = 0 then Error Errno.ENOENT
  else if String.length path > max_path then Error Errno.ENAMETOOLONG
  else begin
    let parts = String.split_on_char '/' path in
    let rec convert acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest -> convert acc rest
      | "." :: rest -> convert (Cur :: acc) rest
      | ".." :: rest -> convert (Up :: acc) rest
      | name :: rest ->
        if String.length name > max_name then Error Errno.ENAMETOOLONG
        else convert (Name name :: acc) rest
    in
    convert [] parts
  end

(* Top-level tail recursion over ints: a [String.iter] closure capturing
   its counters would allocate per call on the syscall entry. *)
let rec count_from path len i in_comp acc =
  if i >= len then acc
  else if String.unsafe_get path i = '/' then count_from path len (i + 1) false acc
  else if in_comp then count_from path len (i + 1) true acc
  else count_from path len (i + 1) true (acc + 1)

let count_components path = count_from path (String.length path) 0 false 0

let is_absolute path = String.length path > 0 && path.[0] = '/'

let has_trailing_slash path =
  let n = String.length path in
  n > 0 && path.[n - 1] = '/'

let lexical_normalize components =
  let rec go stack = function
    | [] -> List.rev stack
    | Cur :: rest -> go stack rest
    | Up :: rest -> (
      match stack with
      | Name _ :: deeper -> go deeper rest
      | Up :: _ | [] -> go (Up :: stack) rest
      | Cur :: _ -> assert false)
    | (Name _ as c) :: rest -> go (c :: stack) rest
  in
  go [] components

let join dir rel =
  if is_absolute rel then rel
  else if has_trailing_slash dir then dir ^ rel
  else dir ^ "/" ^ rel
