(* End-to-end compilation and measurement driver, split at the
   machine-independence boundary: [transform] applies the level's
   machine-independent pipeline (scalar optimizations, unrolling, the
   expansions, renaming, ...) plus superblock formation — none of which
   read the machine description — and its output can be cached and
   shared across machine configurations. [schedule_and_measure] does
   the per-machine work: list scheduling for the target, execution-
   driven simulation, and register-usage measurement. List scheduling
   is itself split: [prepare_with] analyzes a transformed program once
   and [schedule_prepared] emits it per machine. Each stage
   reports its wall time to [Impact_obs.Obs] for `bench json` and the
   bench stderr stage report.

   Every entry point takes the consolidated [Opts.t] record. *)

open Impact_ir

type measurement = {
  level : Level.t;
  machine : Machine.t;
  cycles : int;
  dyn_insns : int;
  usage : Impact_regalloc.Regalloc.usage;
  result : Impact_sim.Sim.result;
}

let transform_all_with ?applied (opts : Opts.t) (levels : Level.t list) (p : Prog.t)
    : Prog.t list =
  Impact_obs.Obs.stage "transform" (fun () ->
    Level.apply_all ?applied
      (List.map (Level.pipeline ?unroll_factor:opts.Opts.unroll) levels)
      p
    |> List.map (fun p ->
         Impact_obs.Obs.span ~cat:"sched" "sched.superblock" (fun () ->
           Impact_sched.Superblock.run p)))

let transform_with (opts : Opts.t) (level : Level.t) (p : Prog.t) : Prog.t =
  match transform_all_with opts [ level ] p with [ p ] -> p | _ -> assert false

type prepared = List_plan of Impact_sched.List_sched.plan | Pipe_input of Prog.t

let schedule_span name f =
  Impact_obs.Obs.stage "schedule" (fun () -> Impact_obs.Obs.span ~cat:"sched" name f)

let prepare_with (opts : Opts.t) (p : Prog.t) : prepared =
  match opts.Opts.sched with
  | `List ->
    List_plan (schedule_span "sched.prepare" (fun () -> Impact_sched.List_sched.prepare p))
  | `Pipe -> Pipe_input p

let schedule_prepared (machine : Machine.t) : prepared -> Prog.t = function
  | List_plan plan ->
    schedule_span "sched.list" (fun () -> Impact_sched.List_sched.emit machine plan)
  | Pipe_input p ->
    (* Pipe draws fresh registers and loop ids: a fork keeps a program
       shared across machines from depending on which machine ran first. *)
    Impact_pipe.Pipe.run machine (Prog.fork p)

let schedule_with (opts : Opts.t) (machine : Machine.t) (p : Prog.t) : Prog.t =
  schedule_prepared machine (prepare_with opts p)

(* Simulation dispatch on the machine's core axis: the in-order
   interlocked pipeline (lib/sim) or the out-of-order ROB/renaming core
   (lib/ooo). Both return the same [Sim.result] and raise the same
   [Sim.Timeout]/[Sim.Error]. *)
let simulate ?fuel (machine : Machine.t) (p : Prog.t) : Impact_sim.Sim.result =
  match machine.Machine.core with
  | Machine.Inorder -> Impact_sim.Sim.run ?fuel machine p
  | Machine.Ooo _ -> Impact_ooo.Ooo.run ?fuel machine p

let measure_prepared (opts : Opts.t) (level : Level.t) (machine : Machine.t)
    (prepared : prepared) : measurement =
  let compiled = schedule_prepared machine prepared in
  let result =
    Impact_obs.Obs.stage "simulate" (fun () ->
      simulate ?fuel:opts.Opts.fuel machine compiled)
  in
  let usage =
    Impact_obs.Obs.stage "regalloc" (fun () ->
      Impact_regalloc.Regalloc.measure compiled)
  in
  {
    level;
    machine;
    cycles = result.Impact_sim.Sim.cycles;
    dyn_insns = result.Impact_sim.Sim.dyn_insns;
    usage;
    result;
  }

let schedule_and_measure_with (opts : Opts.t) (level : Level.t)
    (machine : Machine.t) (p : Prog.t) : measurement =
  measure_prepared opts level machine (prepare_with opts p)

let compile_with (opts : Opts.t) (level : Level.t) (machine : Machine.t)
    (p : Prog.t) : Prog.t =
  schedule_with opts machine (transform_with opts level p)

let measure_with (opts : Opts.t) (level : Level.t) (machine : Machine.t)
    (p : Prog.t) : measurement =
  schedule_and_measure_with opts level machine (transform_with opts level p)

(* Speedup of a measurement against the paper's base configuration: an
   issue-1 processor with conventional optimizations. *)
let speedup ~base ~this = float_of_int base.cycles /. float_of_int this.cycles
