(** Global liveness over the flattened instruction stream. Used by dead
    code elimination, the scheduler's speculation rule, and the register
    allocator.

    The fixpoint runs on dense integer register indices and bitsets
    ({!Dense}), and every consumer reads that form. *)

open Impact_ir

val successors : Flatten.t -> int -> int list

(** Dense form: registers numbered 0..nregs-1 in ascending [Reg.Ord]
    order (so ascending bit iteration matches [Reg.Set] order), live
    sets as bitsets. The numbering is a table indexed by [Reg.hash],
    which ascends as [Reg.compare] does. This is what the compile hot
    paths consume. *)
module Dense : sig
  type d = {
    flat : Flatten.t;
    regs : Reg.t array;  (** dense index -> register *)
    index_tbl : int array;
        (** [Reg.hash] -> dense index, [-1] for a register the code never
            mentions; sized by the largest hash mentioned *)
    live_in : Bits.t array;
    live_out : Bits.t array;
    exit_live : Bits.t;
  }

  val nregs : d -> int

  val index_opt : d -> Reg.t -> int option
  (** Dense index of a register, [None] when it neither occurs in the
      code nor is live at exit (including a hash beyond [index_tbl]). *)

  val reg : d -> int -> Reg.t

  val analyze : ?exit_live:Reg.t list -> Flatten.t -> d

  val of_prog : Prog.t -> d
  (** Dense liveness with the program outputs live at exit. *)

  val live_at_target : d -> Insn.t -> Reg.t -> bool
  (** [live_at_target d br] is the membership test of the live set at
      the branch's target: [true] for a register live there, [false] for
      one the code never mentions. *)
end
