(* certify: the exact modulo-scheduling certifier over the corpus, the
   120 loop instances `bench oracle` certifies, through [Oracle.run] on
   one worker. Nearly all of its time is one loop searching until its
   node budget runs out, so time per search node is what an
   exact-engine change moves. *)

open Perfbench
open Impact_core
open Common
module O = Impact_exact.Oracle

let budget = Impact_exact.Exact.default_budget

type census_row = { c_status : string; c_lb : string; c_ub : string; c_proved : bool }

let census () =
  List.filter_map
    (function
      | [ s; m; lid; status; lb; ub; proved ] ->
        Some ((s, m, int_of_string lid), { c_status = status; c_lb = lb; c_ub = ub; c_proved = proved = "true" })
      | _ -> None)
    (read_table "oracle_census.txt")

let opt_int = function Some n -> string_of_int n | None -> "-"

let proved (r : O.row) = r.O.r_proved = Some true

(* A proved row must agree with the census: the same verdict where the
   census is proved too, and a bound inside the census's bracket where
   the census ran out of budget. Unproved rows are undecided, not
   wrong: they lower decided_frac instead. *)
let check rows =
  let census = census () in
  let failed = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> progress "certify: %s" m; incr failed) fmt in
  if List.length rows <> List.length census then
    fail "%d loop instances, census has %d" (List.length rows) (List.length census);
  List.iter
    (fun (r : O.row) ->
      let key = (r.O.r_subject, r.O.r_machine, r.O.r_lid) in
      match List.assoc_opt key census with
      | None -> fail "%s %s loop %d: not in the census" r.O.r_subject r.O.r_machine r.O.r_lid
      | Some c when proved r ->
        let lb = opt_int r.O.r_lb and ub = opt_int r.O.r_ub in
        let agrees =
          if c.c_proved then c.c_status = r.O.r_status && c.c_lb = lb && c.c_ub = ub
          else
            match (r.O.r_lb, int_of_string_opt c.c_lb, int_of_string_opt c.c_ub) with
            | Some v, Some clb, Some cub -> clb <= v && v <= cub
            | _ -> false
        in
        if not agrees then
          fail "%s %s loop %d: proved %s lb %s ub %s, census %s lb %s ub %s" r.O.r_subject r.O.r_machine
            r.O.r_lid r.O.r_status lb ub c.c_status c.c_lb c.c_ub
      | Some _ -> ())
    rows;
  !failed

let names = List.map (fun (s : Experiment.subject) -> s.Experiment.sname) subjects

(* One census through [Oracle.run], a subject at a time so each
   subject's time is seen, with a calibration slice between subjects
   (calib.ml). *)
type census = {
  c_rows : O.row list;
  c_ms : float list;  (* each subject's wall time, at the reference speed *)
  c_cpu : float list;  (* each subject's CPU seconds, at the reference speed *)
  c_wall : float;  (* the subjects' sum, as measured *)
  c_cal : Calib.sample list;
  c_rss_mb : float;  (* peak RSS during the census *)
}

let census_pass ~budget =
  (* Every census starts from the same compacted heap. *)
  Gc.compact ();
  reset_peak_rss ();
  let marks = ref [ Calib.bracket () ] in
  let rows =
    List.concat_map
      (fun name ->
        let rows = O.run ~workers:1 ~budget ~only:[ name ] () in
        marks := Calib.bracket () :: !marks;
        rows)
      names
  in
  let marks = List.rev !marks in
  {
    c_rows = rows;
    c_ms = List.map (fun d -> d *. 1e3) (Calib.spans_wall marks);
    c_cpu = Calib.spans_cpu marks;
    c_wall = List.fold_left (fun acc (w, _, _) -> acc +. w) 0.0 (Calib.spans marks);
    c_cal = List.map (fun m -> m.Calib.cal) marks;
    c_rss_mb = peak_rss_mb "self";
  }

let setup () = premise (census () <> []) "certify: no census"

let gen_cycles rows =
  (* Cycles per iteration of every software-pipelined kernel. *)
  float_of_int (List.fold_left (fun acc (r : O.row) -> acc + Option.value ~default:0 r.O.r_heur_ii) 0 rows)

(* Node budget of the timed censuses: a twentieth of the default. The
   default budget spends ~200k nodes (~20 s) on one loop (NAS-6
   issue-8), a single timing per run. A census cut shorter runs the
   same search and the same per-node work, and fits many times into a
   run, so each subject's median census counts, as in matrix-cold.
   Every other loop is decided without search, so the verdicts match
   the default budget's. *)
let timed_budget = budget / 20

let run ~seconds ~t_start =
  let setup_s = probe_setup ~t_start ~workload:"certify" setup in
  let t_end = now () +. seconds in
  let rec go acc =
    Affinity.pin_pass (List.length acc);
    let acc = census_pass ~budget:timed_budget :: acc in
    if now () < t_end || List.length acc < 2 then go acc else List.rev acc
  in
  let passes = go [] in
  Affinity.unpin ();
  let rows = (List.hd passes).c_rows in
  let failed = List.fold_left (fun acc c -> acc + check c.c_rows + if c.c_rows = rows then 0 else 1) 0 passes in
  let cal = List.concat_map (fun c -> c.c_cal) passes in
  spread "census wall_s as measured" (List.map (fun c -> c.c_wall) passes);
  spread "calibration slice ms" (List.map (fun c -> c.Calib.wall *. 1e3) cal);
  let median_ms = per_subject_median (List.map (fun c -> c.c_ms) passes) in
  let wall = List.fold_left ( +. ) 0.0 median_ms /. 1e3 in
  let cpu = List.fold_left ( +. ) 0.0 (per_subject_median (List.map (fun c -> c.c_cpu) passes)) in
  let decided = List.length (List.filter proved rows) in
  info "certify: %d censuses at %d nodes per loop; %d of %d proved, %d nodes per census" (List.length passes)
    timed_budget decided (List.length rows)
    (List.fold_left (fun acc (r : O.row) -> acc + r.O.r_nodes) 0 rows);
  emit ~trace:false ~attempted:(List.length rows * List.length passes) ~failed
    [
      ("setup_s", setup_s *. Calib.factor_wall cal);
      ("wall_s", wall);
      ("rps", float_of_int (List.length rows) /. wall);
      ("p50_ms", Stats.median median_ms);
      ("p99_ms", tail_ms "subject latency (median census)" median_ms);
      ("server_cpu_us", cpu *. 1e6 /. float_of_int (List.length rows));
      ("peak_rss_mb", Stats.median (List.map (fun c -> c.c_rss_mb) passes));
      ("gen_cycles", gen_cycles rows);
      ("decided_frac", float_of_int decided /. float_of_int (List.length rows));
    ]

(* ---- Traced run: Oracle.run's per-(subject, machine) task from
   public calls, each layer wrapped in a span. ---- *)

let traced_pass () =
  List.concat_map
    (fun (w : Impact_workloads.Suite.t) ->
      List.concat_map
        (fun (machine : Impact_ir.Machine.t) ->
          let p = Trace.span "fir.lower" (fun () -> Impact_fir.Lower.lower w.Impact_workloads.Suite.ast) in
          let p = Trace.span "core.level" (fun () -> Level.apply Level.Conv p) in
          let p = Trace.span "sched.superblock" (fun () -> Impact_sched.Superblock.run p) in
          let _, reps = Trace.span "pipe.problems" (fun () -> Impact_pipe.Pipe.run_with_problems machine p) in
          List.map
            (fun rp ->
              Trace.span "exact.certify" (fun () ->
                O.certify_loop ~budget:timed_budget ~subject:w.Impact_workloads.Suite.name ~machine:machine.Impact_ir.Machine.name
                  rp))
            reps)
        (Report.matrix_machines ()))
    Impact_workloads.Suite.all

let run_traced () =
  setup ();
  let c = census_pass ~budget:timed_budget in
  let untraced = c.c_rows and untraced_wall = c.c_wall in
  let failed = check untraced in
  Trace.reset ();
  Trace.enabled := true;
  let (rows, gc), traced_wall = time (fun () -> with_gc traced_pass) in
  Trace.enabled := false;
  let failed = failed + if rows = untraced then 0 else (progress "certify: traced rows differ"; 1) in
  let totals = Trace.totals () in
  let certify_s =
    match Hashtbl.find_opt totals "exact.certify" with Some t -> t.Trace.self_s | None -> 0.0
  in
  let nodes = List.fold_left (fun acc (r : O.row) -> acc + r.O.r_nodes) 0 rows in
  let budget_loops =
    List.length (List.filter (fun (r : O.row) -> r.O.r_status = "bounded" || r.O.r_status = "skip-open") rows)
  in
  info "traced wall %.4f s, untraced %.4f s" traced_wall untraced_wall;
  emit ~trace:true ~attempted:(2 * List.length rows) ~failed
    ([
       ("trace.overhead_s", traced_wall -. untraced_wall);
       ("exact.certify_s", certify_s);
       ("exact.nodes", float_of_int nodes);
       ("exact.node_us", if nodes = 0 then 0.0 else certify_s *. 1e6 /. float_of_int nodes);
       ("exact.budget_loops", float_of_int budget_loops);
     ]
    @ gc @ layer_values totals)
