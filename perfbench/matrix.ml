(* matrix-cold: the paper's Section 3 matrix (40 kernels x Conv..Lev4 x
   issue-2/4/8, plus the 40 issue-1 Conv bases) through
   [Experiment.run_all_with] on one worker, in-order core, list
   scheduling, no result cache: one closed batch caller. *)

open Perfbench
open Impact_ir
open Impact_core
open Common

let opts = Opts.default

let machines = Report.matrix_machines ()

let evaluations = (List.length subjects * List.length Level.all * List.length machines) + List.length subjects

(* A cell as compared between passes and between the traced and the
   untraced run. *)
type key = string * Level.t * string

type row = { r_cycles : int; r_dyn : int; r_int : int; r_float : int; r_speedup : float }

let row_of_cell (c : Experiment.cell) =
  ( (c.Experiment.subject.Experiment.sname, c.Experiment.level, c.Experiment.machine.Machine.name),
    {
      r_cycles = c.Experiment.cycles;
      r_dyn = c.Experiment.dyn_insns;
      r_int = c.Experiment.int_regs;
      r_float = c.Experiment.float_regs;
      r_speedup = c.Experiment.speedup;
    } )

(* Every measurement the pass computes is offered to [store]; [lookup]
   never answers, so nothing is served from a result cache. *)
let captured : (key, Compile.measurement) Hashtbl.t = Hashtbl.create 1024

let capture_mutex = Mutex.create ()

let capture_hooks =
  {
    Experiment.lookup =
      (fun _ _ _ _ -> None);
    store =
      (fun s _ level machine m ->
        Mutex.protect capture_mutex (fun () ->
          Hashtbl.replace captured (s.Experiment.sname, level, machine.Machine.name) m));
  }

type pass = {
  p_rows : (key * row) list;
  p_wall : float;  (* the subjects' sum, as measured *)
  p_subject_ms : float list;  (* wall time of each subject, at the reference speed *)
  p_subject_cpu : float list;  (* CPU seconds of each subject, at the reference speed *)
  p_cal : Calib.sample list;
  p_rss_mb : float;  (* peak RSS during the pass *)
  p_failed : int;
}

(* One cold pass: bases cleared, every evaluation recomputed. *)
let run_pass () =
  Experiment.clear_base_cache ();
  Hashtbl.reset captured;
  (* Every pass starts from the same compacted heap. *)
  Gc.compact ();
  reset_peak_rss ();
  (* progress marks the start of each subject's task; the next mark (or
     the one after the pass) closes it. *)
  let marks = ref [] in
  let mark () = marks := Calib.bracket () :: !marks in
  let poisoned = ref 0 in
  let cells =
    Experiment.run_all_with ~workers:1
      ~progress:(fun _ -> mark ())
      ~on_poison:(fun _ -> incr poisoned)
      opts machines Level.all subjects
  in
  mark ();
  premise
    (Hashtbl.length captured + !poisoned = evaluations)
    (Printf.sprintf "matrix-cold computed %d of %d evaluations: a result cache answered the rest"
       (Hashtbl.length captured) evaluations);
  let marks = List.rev !marks in
  {
    p_rows = List.map row_of_cell cells;
    p_wall = List.fold_left (fun acc (w, _, _) -> acc +. w) 0.0 (Calib.spans marks);
    p_subject_ms = List.map (fun d -> d *. 1e3) (Calib.spans_wall marks);
    p_subject_cpu = Calib.spans_cpu marks;
    p_cal = List.map (fun m -> m.Calib.cal) marks;
    p_rss_mb = peak_rss_mb "self";
    p_failed = !poisoned;
  }

(* Output checks of one pass: every cell equals its issue-1 Conv base
   within tolerance, and every base equals its pinned reference digest. *)
let check_outputs (p : pass) =
  let expected = base_digests () in
  let failed = ref p.p_failed in
  let fail fmt = Printf.ksprintf (fun m -> progress "%s" m; incr failed) fmt in
  if List.length p.p_rows + List.length subjects <> evaluations then
    fail "matrix-cold: %d cells, expected %d" (List.length p.p_rows) (evaluations - List.length subjects);
  List.iter
    (fun (s : Experiment.subject) ->
      let name = s.Experiment.sname in
      match Hashtbl.find_opt captured (name, Level.Conv, Machine.issue_1.Machine.name) with
      | None -> fail "%s: no base measurement" name
      | Some base ->
        (match List.assoc_opt name expected with
        | Some d when d = outputs_digest base.Compile.result -> ()
        | Some _ -> fail "%s: base outputs differ from the reference digest" name
        | None -> fail "%s: no reference digest" name);
        List.iter
          (fun ((sname, level, mname), row) ->
            if sname = name then
              match Hashtbl.find_opt captured (sname, level, mname) with
              | None -> fail "%s %s %s: not computed" sname (Level.to_string level) mname
              | Some m ->
                if m.Compile.cycles <> row.r_cycles then
                  fail "%s %s %s: cell and measurement disagree" sname (Level.to_string level) mname
                else if not (same_result base.Compile.result m.Compile.result) then
                  fail "%s %s %s: outputs differ from the base" sname (Level.to_string level) mname)
          p.p_rows)
    subjects;
  !failed

let gen_cycles rows = float_of_int (List.fold_left (fun acc (_, r) -> acc + r.r_cycles) 0 rows)

(* The reference file's contents, from the current code. *)
let print_base_outputs () =
  List.iter
    (fun (s : Experiment.subject) ->
      let m = Experiment.base_measurement_with opts s in
      Printf.printf "%s %s\n" s.Experiment.sname (outputs_digest m.Compile.result))
    subjects

let setup () =
  Experiment.set_cache (Some capture_hooks);
  premise (base_digests () <> []) "matrix-cold: no reference digests";
  Gc.compact ()

type timed = { pass : pass; failed : int }

(* Untraced passes until [seconds] have elapsed (at least two, so a
   pass can be compared with another). *)
let timed_passes ~seconds =
  let t_end = now () +. seconds in
  let rec go acc =
    Affinity.pin_pass (List.length acc);
    let pass = run_pass () in
    let acc = { pass; failed = check_outputs pass } :: acc in
    if now () < t_end || List.length acc < 2 then go acc else List.rev acc
  in
  let passes = go [] in
  Affinity.unpin ();
  passes

(* Each subject's time is the median over passes of its time at the
   reference speed (calib.ml); the pass-level figures are sums of
   those. *)
let run ~seconds ~t_start =
  let setup_s = probe_setup ~t_start ~workload:"matrix-cold" setup in
  let passes = timed_passes ~seconds in
  let first = (List.hd passes).pass in
  let failed =
    List.fold_left
      (fun acc t ->
        if t.pass.p_rows <> first.p_rows then begin
          progress "matrix-cold: a pass disagrees with the first";
          acc + t.failed + 1
        end
        else acc + t.failed)
      0 passes
  in
  let n = List.length passes in
  let cal = List.concat_map (fun t -> t.pass.p_cal) passes in
  spread "pass wall_s as measured" (List.map (fun t -> t.pass.p_wall) passes);
  spread "calibration slice ms" (List.map (fun c -> c.Calib.wall *. 1e3) cal);
  let median_ms = per_subject_median (List.map (fun t -> t.pass.p_subject_ms) passes) in
  let wall = List.fold_left ( +. ) 0.0 median_ms /. 1e3 in
  let cpu = List.fold_left ( +. ) 0.0 (per_subject_median (List.map (fun t -> t.pass.p_subject_cpu) passes)) in
  emit ~trace:false ~attempted:(n * evaluations) ~failed
    [
      ("setup_s", setup_s *. Calib.factor_wall cal);
      ("wall_s", wall);
      ("rps", float_of_int evaluations /. wall);
      ("p50_ms", Stats.median median_ms);
      ("p99_ms", tail_ms "subject latency (median pass)" median_ms);
      ("server_cpu_us", cpu *. 1e6 /. float_of_int evaluations);
      ("peak_rss_mb", Stats.median (List.map (fun t -> t.pass.p_rss_mb) passes));
      ("gen_cycles", gen_cycles first.p_rows);
      ( "decided_frac",
        float_of_int (List.length first.p_rows + List.length subjects) /. float_of_int evaluations );
    ]

(* ---- Traced run ---- *)

(* [Experiment.run_subject_with]'s call order from public calls: base,
   then per level lower + Level.apply + Superblock.run, then per machine
   and level List_sched.run, Sim.run, Regalloc.measure. *)
let traced_subject (s : Experiment.subject) =
  let base = Trace.span "core.base" (fun () -> Experiment.base_measurement_with opts s) in
  let transformed =
    List.map
      (fun level ->
        let p = Trace.span "fir.lower" (fun () -> Impact_fir.Lower.lower s.Experiment.ast) in
        let p = Trace.span "core.level" (fun () -> Level.apply level p) in
        let p = Trace.span "sched.superblock" (fun () -> Impact_sched.Superblock.run p) in
        Trace.count "core.ir_insns" (float_of_int (Prog.insn_count p));
        (level, p))
      Level.all
  in
  List.concat_map
    (fun machine ->
      List.map
        (fun (level, tp) ->
          let code = Trace.span "sched.list" (fun () -> Impact_sched.List_sched.run machine tp) in
          Trace.count "sched.code_insns" (float_of_int (Prog.insn_count code));
          let r = Trace.span "sim.run" (fun () -> Impact_sim.Sim.run machine code) in
          Trace.count "sim.dyn_insns" (float_of_int r.Impact_sim.Sim.dyn_insns);
          let u = Trace.span "regalloc.measure" (fun () -> Impact_regalloc.Regalloc.measure code) in
          ( (s.Experiment.sname, level, machine.Machine.name),
            {
              r_cycles = r.Impact_sim.Sim.cycles;
              r_dyn = r.Impact_sim.Sim.dyn_insns;
              r_int = u.Impact_regalloc.Regalloc.int_used;
              r_float = u.Impact_regalloc.Regalloc.float_used;
              r_speedup = float_of_int base.Compile.cycles /. float_of_int r.Impact_sim.Sim.cycles;
            } ))
        transformed)
    machines

let run_traced () =
  setup ();
  (* The untraced reference pass, then the same matrix traced. *)
  let untraced = run_pass () in
  let failed = check_outputs untraced in
  Experiment.set_cache None;
  Experiment.clear_base_cache ();
  Trace.reset ();
  Impact_obs.Obs.reset ();
  Impact_obs.Obs.set_collecting true;
  Trace.enabled := true;
  Gc.compact ();
  let rows, gc = with_gc (fun () -> time (fun () -> List.concat_map traced_subject subjects)) in
  let rows, traced_wall = rows in
  Trace.enabled := false;
  Impact_obs.Obs.set_collecting false;
  let failed =
    if rows <> untraced.p_rows then begin
      progress "matrix-cold: traced cells differ from the untraced pass";
      failed + 1
    end
    else failed
  in
  info "traced wall %.4f s, untraced %.4f s" traced_wall untraced.p_wall;
  emit ~trace:true ~attempted:(2 * evaluations) ~failed
    ((("trace.overhead_s", traced_wall -. untraced.p_wall) :: gc) @ layer_values (Trace.totals ()))
