(** Superblock list scheduling: dependence-height priority, issue-width
    and branch-slot resources, speculative upward motion of non-excepting
    instructions past side exits (per the dependence graph's rules). *)

open Impact_ir
open Impact_analysis

type result = {
  items : Block.item list;  (** reordered segment *)
  makespan : int;  (** schedule length in cycles *)
  issue_time : (int * int) list;  (** (instruction id, cycle) in emission order *)
}

val segment_sb : Insn.t array -> Sb.t
(** The superblock view of a label-free segment that
    {!schedule_segment} builds its dependence graph on. *)

val schedule_graph : Machine.t -> Ddg.t -> Insn.t array -> result
(** List-schedule a label-free segment on a given dependence graph of
    [segment_sb insns]. *)

val schedule_segment :
  Machine.t ->
  live_at_target:(Insn.t -> (Reg.t -> bool) option) ->
  ?pre_env:Linval.lin Reg.Map.t ->
  Insn.t array ->
  result

val schedule_body :
  Machine.t ->
  live_at_target:(Insn.t -> (Reg.t -> bool) option) ->
  ?pre_env:Linval.lin Reg.Map.t ->
  Block.t ->
  Block.t
(** Split a body into label-delimited segments and schedule each. *)

type plan
(** The machine-independent half of scheduling a program: each
    segment's dependence graph and heights, built once from the
    program's liveness and each innermost loop's preheader
    environment. *)

val prepare : Prog.t -> plan
(** Analyze every innermost loop body. Superblock formation should have
    run first; preheader items are evaluated symbolically so expanded
    induction pointers disambiguate. *)

val emit : Machine.t -> plan -> Prog.t
(** List-schedule a prepared program for one machine. A plan may be
    emitted for any number of machines. *)

val run : Machine.t -> Prog.t -> Prog.t
(** [emit machine (prepare p)]. *)
