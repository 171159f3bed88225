(* Shared pieces of the benchmark harness: result emission, timing and
   process probes, output checks and the traced runs' layer figures. *)

open Perfbench
open Impact_core
module J = Impact_svc.Json

exception Premise of string
(** A workload's premise did not hold: the run reports no numbers. *)

let premise cond msg = if not cond then raise (Premise msg)

(* Human-readable lines go to stdout ahead of the result line. *)
let info fmt = Printf.printf (fmt ^^ "\n%!")

let progress fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")

(* Print every registered metric of the run's kind (end-to-end when
   untraced, per-layer when traced) and the one-line JSON result. A
   missing end-to-end value is a harness bug, not a zero. *)
let emit ~trace ~attempted ~failed (values : (string * float) list) =
  let registry = if trace then Metrics.per_layer else Metrics.end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v -> v
          | None when trace -> 0.0
          | None -> failwith ("perfbench: no value for " ^ name)
        in
        if not (Float.is_finite v) then failwith (Printf.sprintf "perfbench: %s is %g" name v);
        info "metric %-26s %16.6f %s" name v unit;
        Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name v unit)
      registry
  in
  info "failed_frac %.6f (%d of %d attempted)" (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  (* Values print with all their digits. *)
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} (failed = 0)
    attempted failed (String.concat ", " metrics);
  print_newline ()

(* ---- Timing helpers ---- *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Report a tail percentile with its rank and sample count. *)
let tail_ms label xs =
  let t = Stats.tail xs in
  info "%s: p%.2f of %d samples (%d beyond) = %.4f ms" label (100.0 *. t.Stats.t_q) t.Stats.t_n
    t.Stats.t_beyond t.Stats.t_value;
  t.Stats.t_value

let spread label xs =
  let q1, q2, q3 = Stats.quartiles xs in
  info "%s: median %.6g, quartiles %.6g..%.6g over %d trials [%s]" label q2 q1 q3 (List.length xs)
    (String.concat " " (List.map (Printf.sprintf "%.4g") xs))

(* Each column's median over rows: e.g. each subject's median over
   passes, from one list of subject times per pass. *)
let per_subject_median rows =
  match rows with
  | [] -> []
  | first :: _ -> List.mapi (fun i _ -> Stats.median (List.map (fun r -> List.nth r i) rows)) first

(* ---- Process probes ---- *)

(* utime+stime of another process from /proc/<pid>/stat (fields 14 and
   15, in USER_HZ = 100 ticks per second on Linux). *)
let proc_cpu_s pid =
  match Host.read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | l :: _ ->
    (* The command name may contain spaces; fields restart after ')'. *)
    let i = String.rindex l ')' in
    let rest = String.split_on_char ' ' (String.sub l (i + 2) (String.length l - i - 2)) in
    let f k = float_of_string (List.nth rest (k - 3)) in
    (f 14 +. f 15) /. 100.0
  | [] -> nan

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid_or_self =
  let path = Printf.sprintf "/proc/%s/status" pid_or_self in
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
        | kb :: _ -> Some (float_of_string kb /. 1024.0)
        | [] -> None)
      | _ -> None)
    (Host.read_lines path)
  |> Option.value ~default:nan

(* Restart this process's peak-RSS count (VmHWM) at its current RSS,
   so that a pass's peak can be read on its own. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* ---- Subjects and output checks ---- *)

let subjects : Experiment.subject list =
  List.map
    (fun (w : Impact_workloads.Suite.t) ->
      {
        Experiment.sname = w.Impact_workloads.Suite.name;
        group = Impact_workloads.Suite.ltype_to_string w.Impact_workloads.Suite.ltype;
        ast = w.Impact_workloads.Suite.ast;
      })
    Impact_workloads.Suite.all

let subject name = List.find (fun (s : Experiment.subject) -> s.Experiment.sname = name) subjects

(* Outputs equal within the tolerance bench's pipe check uses. *)
let same_result ?(tol = 1e-6) (a : Impact_sim.Sim.result) (b : Impact_sim.Sim.result) =
  let open Impact_sim.Sim in
  let close x y = abs_float (x -. y) <= tol *. (1.0 +. max (abs_float x) (abs_float y)) in
  List.length a.outputs = List.length b.outputs
  && List.length a.arrays_out = List.length b.arrays_out
  && List.for_all2
       (fun (n1, v1) (n2, v2) ->
         n1 = n2 && match (v1, v2) with VI x, VI y -> x = y | VF x, VF y -> close x y | _ -> false)
       a.outputs b.outputs
  && List.for_all2
       (fun (n1, x1) (n2, x2) ->
         n1 = n2 && Array.length x1 = Array.length x2 && Array.for_all2 close x1 x2)
       a.arrays_out b.arrays_out

(* Exact digest of a run's observable outputs (floats in hex, so every
   bit counts). *)
let outputs_digest (r : Impact_sim.Sim.result) =
  let open Impact_sim.Sim in
  let b = Buffer.create 256 in
  List.iter
    (fun (n, v) ->
      Buffer.add_string b n;
      Buffer.add_string b
        (match v with VI x -> Printf.sprintf "=i%d;" x | VF x -> Printf.sprintf "=f%h;" x))
    r.outputs;
  List.iter
    (fun (n, xs) ->
      Buffer.add_string b n;
      Buffer.add_char b '[';
      Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h," x)) xs;
      Buffer.add_char b ']')
    r.arrays_out;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- Expected-output files (under the benchmark's directory) ---- *)

let expected_dir = ref "perfbench/expected"

(* "key value..." lines; '#' starts a comment line. *)
let read_table name =
  Host.read_lines (Filename.concat !expected_dir name)
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))

(* Each kernel's issue-1 Conv outputs, as [outputs_digest]s. *)
let base_digests () =
  List.filter_map (function [ k; d ] -> Some (k, d) | _ -> None) (read_table "base_outputs.txt")

(* Set-up time of an in-process workload: this process's own set-up,
   timed from process start, and [setup_probes] more in fresh probe
   processes ([--setup-probe]) timed from spawn to exit. Reports the
   median. A set-up takes a few milliseconds, so many are cheap. *)
let setup_probes = 20

let probe_setup ~t_start ~workload setup =
  setup ();
  let first = now () -. t_start in
  let probe () =
    let t0 = now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--setup-probe"; workload |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> now () -. t0
    | _ -> failwith "setup probe failed"
  in
  let times = first :: List.init setup_probes (fun _ -> probe ()) in
  spread "setup_s" times;
  Stats.median times

(* Median time of [k] set-ups; the last is kept, so timing begins right
   after it, and the others are torn down with [discard]. The first
   set-up is timed from process start ([t_start]), the rest from their
   own start. Each time is multiplied by [factor ()], called right
   after that set-up is timed, which brings it to the reference speed
   (calib.ml). *)
let repeated_setup ~k ~t_start ~(factor : unit -> float) ~(setup : unit -> 'a) ~(discard : 'a -> unit) : 'a * float =
  let rec go i times =
    let t0 = if i = 1 then t_start else now () in
    let s = setup () in
    let t = now () -. t0 in
    let times = (t *. factor ()) :: times in
    if i = k then begin
      spread "setup_s" times;
      (s, Stats.median times)
    end
    else begin
      discard s;
      go (i + 1) times
    end
  in
  go 1 []

(* ---- Layer figures of the traced runs ---- *)

let alloc_mw (t : Trace.total) = t.Trace.alloc_w /. 1e6

(* Spans recorded by the libraries themselves (Obs collecting). *)
let obs_span name =
  List.find_map
    (fun (sp : Impact_obs.Obs.span_total) ->
      if sp.Impact_obs.Obs.sp_name = name then
        Some (sp.Impact_obs.Obs.sp_total_s, sp.Impact_obs.Obs.sp_calls)
      else None)
    (Impact_obs.Obs.report ()).Impact_obs.Obs.r_spans
  |> Option.value ~default:(0.0, 0)

let layer_values totals =
  let t name =
    Option.value (Hashtbl.find_opt totals name)
      ~default:{ Trace.calls = 0; total_s = 0.0; self_s = 0.0; alloc_w = 0.0 }
  in
  let self name = (t name).Trace.self_s in
  let calls name = float_of_int (t name).Trace.calls in
  [
    ("fir.lower_s", self "fir.lower");
    ("core.level_s", self "core.level");
    ("core.level_calls", calls "core.level");
    ("core.level_alloc_mw", alloc_mw (t "core.level"));
    ("core.ir_insns", Trace.get_count "core.ir_insns");
    ("core.base_s", self "core.base");
    ("core.base_calls", calls "core.base");
    ("sched.superblock_s", self "sched.superblock");
    ("sched.list_s", self "sched.list");
    ("sched.list_calls", calls "sched.list");
    ("sched.list_alloc_mw", alloc_mw (t "sched.list"));
    ("sched.code_insns", Trace.get_count "sched.code_insns");
    ("pipe.run_s", self "pipe.run");
    ("pipe.pipelined", Trace.get_count "pipe.pipelined");
    ("pipe.skipped", Trace.get_count "pipe.skipped");
    ("pipe.problems_s", self "pipe.problems");
    ("regalloc.measure_s", self "regalloc.measure");
    ("regalloc.alloc_mw", alloc_mw (t "regalloc.measure"));
    ("regalloc.edges", float_of_int (Impact_obs.Obs.counter_value "regalloc.edges"));
    ("sim.run_s", self "sim.run");
    ("sim.dyn_insns", Trace.get_count "sim.dyn_insns");
    ("sim.alloc_mw", alloc_mw (t "sim.run"));
    ("ooo.run_s", self "ooo.run");
    ("ooo.dyn_insns", Trace.get_count "ooo.dyn_insns");
    ("opt.conv_s", fst (obs_span "pass.conv"));
    ("opt.conv_calls", float_of_int (snd (obs_span "pass.conv")));
    ("opt.dce_s", fst (obs_span "opt.dce"));
    ("opt.cse_s", fst (obs_span "opt.cse"));
    ("opt.cleanup_s", fst (obs_span "pass.cleanup"));
  ]

(* Allocation and major collections over [f], from Gc counters. *)
let with_gc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let w (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  (r, [ ("gc.alloc_mw", (w s1 -. w s0) /. 1e6);
        ("gc.major_collections", float_of_int (s1.Gc.major_collections - s0.Gc.major_collections)) ])
