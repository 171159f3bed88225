(* Virtual registers. The simulated processor has an unbounded register
   file (paper Section 3.1); physical registers only exist as a
   measurement made by the allocator. *)

type cls = Int | Float

type t = { id : int; cls : cls }

type gen = { mutable next : int }

let make_gen () = { next = 1 }

let fresh gen cls =
  let id = gen.next in
  gen.next <- gen.next + 1;
  { id; cls }

let gen_count gen = gen.next

let copy_gen gen = { next = gen.next }

let compare a b = Stdlib.compare (a.id, a.cls) (b.id, b.cls)

let equal a b = a.id = b.id && a.cls = b.cls

let hash a = (a.id * 2) + (match a.cls with Int -> 0 | Float -> 1)

let of_hash h = { id = h / 2; cls = (if h land 1 = 0 then Int else Float) }

let cls_to_string = function Int -> "i" | Float -> "f"

let to_string r = Printf.sprintf "r%d%s" r.id (cls_to_string r.cls)

let pp ppf r = Format.pp_print_string ppf (to_string r)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
