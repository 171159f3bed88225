(* Whole programs: array declarations (with initial contents so that a
   program is a closed, simulatable object), an entry block, fresh-name
   generators, and named scalar outputs used to validate that
   transformations preserve semantics. *)

type ainit = IInit of int array | FInit of float array

type adecl = { aname : string; acls : Reg.cls; asize : int; ainit : ainit }

type ctx = {
  rgen : Reg.gen;
  mutable next_insn : int;
  mutable next_label : int;
  mutable next_loop : int;
}

type t = {
  arrays : adecl list;
  entry : Block.t;
  ctx : ctx;
  outputs : (string * Reg.t) list;
}

let make_ctx () =
  { rgen = Reg.make_gen (); next_insn = 1; next_label = 1; next_loop = 1 }

(* The counters are a program's only mutable state, so copying them
   yields a program that continues exactly as the original would, without
   either disturbing the other. *)
let fork p =
  let c = p.ctx in
  {
    p with
    ctx =
      {
        rgen = Reg.copy_gen c.rgen;
        next_insn = c.next_insn;
        next_label = c.next_label;
        next_loop = c.next_loop;
      };
  }

let fresh_reg p cls = Reg.fresh p.ctx.rgen cls

let fresh_insn_id ctx =
  let id = ctx.next_insn in
  ctx.next_insn <- ctx.next_insn + 1;
  id

let fresh_label ctx prefix =
  let n = ctx.next_label in
  ctx.next_label <- ctx.next_label + 1;
  Printf.sprintf "%s%d" prefix n

let fresh_loop_id ctx =
  let n = ctx.next_loop in
  ctx.next_loop <- ctx.next_loop + 1;
  n

let find_array p name = List.find_opt (fun a -> a.aname = name) p.arrays

let with_entry p entry = { p with entry }

let insn_count p = List.length (Block.insns p.entry)

(* Declared byte size of an array (one word = 4 address units). *)
let array_bytes a = a.asize * 4
