(* Reference [Reg.Set] view of liveness, kept as a test oracle: the
   shipped analysis ([Impact_analysis.Liveness.Dense]) works on dense
   register indices and bitsets only. This module expands a dense
   result to one symbolic live-in and live-out set per instruction, the
   form the liveness unit tests and the reference dependence graph
   ([Ref_ddg]) read. It includes the shipped module, so a test can
   alias it as [Liveness]. *)

open Impact_ir
include Impact_analysis.Liveness
module Bits = Impact_analysis.Bits

type t = {
  flat : Flatten.t;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  exit_live : Reg.Set.t;
}

(* Reconstruct a [Reg.Set] from a dense bitset: ascending bit order is
   ascending [Reg.Ord] order, so the sorted list converts linearly. *)
let set_of_bits (regs : Reg.t array) (b : Bits.t) : Reg.Set.t =
  let acc = ref [] in
  Bits.iter (fun i -> acc := regs.(i) :: !acc) b;
  (* [acc] is descending; [of_list] sorts, which is linear on sorted
     input sizes like these. *)
  Reg.Set.of_list !acc

let of_dense (d : Dense.d) : t =
  {
    flat = d.Dense.flat;
    live_in = Array.map (set_of_bits d.Dense.regs) d.Dense.live_in;
    live_out = Array.map (set_of_bits d.Dense.regs) d.Dense.live_out;
    exit_live = set_of_bits d.Dense.regs d.Dense.exit_live;
  }

let analyze ?(exit_live = Reg.Set.empty) (flat : Flatten.t) : t =
  of_dense (Dense.analyze ~exit_live:(Reg.Set.elements exit_live) flat)

(* Live set at a label: the live-in of the instruction the label points
   at, or the exit-live set when the label is at the end of the code. *)
let live_at_label (t : t) lbl =
  match Hashtbl.find_opt t.flat.Flatten.labels lbl with
  | None -> invalid_arg ("Liveness.live_at_label: unknown label " ^ lbl)
  | Some k ->
    if k >= Array.length t.live_in then t.exit_live else t.live_in.(k)

(* Live set at the target of a branch instruction. *)
let live_at_target (t : t) (i : Insn.t) =
  match i.Insn.target with
  | None -> invalid_arg "Liveness.live_at_target: not a branch"
  | Some l -> live_at_label t l

(* Liveness of a program: the program outputs are live at exit. *)
let of_prog (p : Prog.t) : t = of_dense (Dense.of_prog p)
