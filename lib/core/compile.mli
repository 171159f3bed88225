(** End-to-end compilation and measurement, split at the machine-
    independence boundary so the harness can cache the transform prefix
    and share it across machine configurations.

    Every entry point takes the consolidated {!Opts.t} — build one with
    {!Opts.make} (or start from {!Opts.default}). *)

open Impact_ir

type measurement = {
  level : Level.t;
  machine : Machine.t;
  cycles : int;
  dyn_insns : int;
  usage : Impact_regalloc.Regalloc.usage;
  result : Impact_sim.Sim.result;
}

val transform_all_with :
  ?applied:Level.step list -> Opts.t -> Level.t list -> Prog.t -> Prog.t list
(** The machine-independent pipeline prefix for several levels at once:
    each level's transformations ({!Level.apply_all}, so a shared prefix
    runs once) plus superblock formation. [p] is the result of [applied]
    (default none), a prefix of every level's pipeline. Each result is
    cacheable per (program, level, unroll) and shareable across machines;
    only [Opts.unroll] is read. *)

val transform_with : Opts.t -> Level.t -> Prog.t -> Prog.t
(** [transform_all_with] on one level. *)

type prepared
(** A transformed program made ready for scheduling on any machine:
    for [`List], its {!Impact_sched.List_sched.plan} (analyzed once);
    for [`Pipe], the program itself. *)

val prepare_with : Opts.t -> Prog.t -> prepared
(** The machine-independent half of {!schedule_with}, per
    [Opts.sched]. *)

val schedule_prepared : Machine.t -> prepared -> Prog.t
(** The per-machine half of {!schedule_with}; a prepared program may be
    scheduled for any number of machines. *)

val schedule_with : Opts.t -> Machine.t -> Prog.t -> Prog.t
(** [schedule_prepared machine (prepare_with opts p)]. Schedule a transformed program for the target machine per
    [Opts.sched]: [`List] is plain list scheduling, [`Pipe]
    software-pipelines every eligible innermost loop via
    {!Impact_pipe.Pipe.run} (on a {!Prog.fork}, so [p] is never
    renumbered) and list-schedules the rest. *)

val simulate :
  ?fuel:int -> Machine.t -> Prog.t -> Impact_sim.Sim.result
(** Simulation dispatched on [Machine.core]: {!Impact_sim.Sim.run} for
    [Inorder], {!Impact_ooo.Ooo.run} for [Ooo]. Both produce the same
    architectural results on the same program (pinned by test/t_ooo). *)

val schedule_and_measure_with :
  Opts.t -> Level.t -> Machine.t -> Prog.t -> measurement
(** Per-machine suffix on a transformed program: schedule, simulate
    (with [Opts.fuel], on the machine's {!Machine.core}), measure
    register usage. *)

val measure_prepared : Opts.t -> Level.t -> Machine.t -> prepared -> measurement
(** [schedule_and_measure_with] on a program prepared by
    [prepare_with opts]. *)

val compile_with : Opts.t -> Level.t -> Machine.t -> Prog.t -> Prog.t
(** [schedule_with opts machine (transform_with opts level p)]. *)

val measure_with : Opts.t -> Level.t -> Machine.t -> Prog.t -> measurement
(** [schedule_and_measure_with opts level machine (transform_with opts level p)]. *)

val speedup : base:measurement -> this:measurement -> float
(** Speedup against the paper's base configuration (issue-1, Conv). *)
