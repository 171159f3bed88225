(* serve-miss: an unsharded `impactc serve --listen` with one worker,
   driven closed-loop from this process over two connections, each
   keeping a fixed window of pipelined requests in flight, in bursts
   with calibration slices between them (calib.ml). Each run starts
   from an empty cache directory and every request is a distinct
   variant from the option space the matrix never touches, so every
   timed request compiles, schedules, simulates, measures registers and
   writes a cache entry. *)

open Perfbench
open Common
module Service = Impact_svc.Service
module Store = Impact_svc.Store

let conns = 2

let window = 4

let impactc = ref "_build/default/bin/impactc.exe"

(* ---- Scratch directories, inside the working directory ---- *)

let tmp_root = ".perfbench-tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    if not (Sys.file_exists tmp_root) then Unix.mkdir tmp_root 0o755;
    incr n;
    let d = Filename.concat tmp_root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !n) in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

(* ---- The server process ---- *)

type server = { pid : int; port : int; err : Unix.file_descr; dir : string; log : string option }

let live_servers : server list ref = ref []

(* Read stderr up to the listening banner and take the bound port. *)
let read_banner fd =
  let b = Buffer.create 256 in
  let one = Bytes.create 1 in
  let prefix = "impactc serve: listening on 127.0.0.1:" in
  let rec go () =
    let ready, _, _ = Unix.select [ fd ] [] [] 30.0 in
    if ready = [] then failwith "serve: no listening banner within 30 s";
    if Unix.read fd one 0 1 = 0 then failwith ("serve: server exited: " ^ Buffer.contents b);
    if Bytes.get one 0 = '\n' then begin
      let line = Buffer.contents b in
      Buffer.clear b;
      if String.starts_with ~prefix line then
        let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
        int_of_string (List.hd (String.split_on_char ' ' rest))
      else go ()
    end
    else begin
      Buffer.add_bytes b one;
      go ()
    end
  in
  go ()

(* One worker, pinned with the whole server to the first allowed CPU
   (the child inherits the mask): the calibration slices between
   bursts then run on the vCPU the server ran on. With two workers the
   server's two OCaml domains stop together for every minor collection,
   and when the host slows one vCPU both wait for it, so throughput
   moved several times as far as the slices did. *)
let spawn ~access_log =
  let dir = fresh_dir "cache" in
  let log = if access_log then Some (Filename.concat dir "access.jsonl") else None in
  let args =
    [ !impactc; "serve"; "--listen"; "127.0.0.1:0"; "-j"; "1"; "--cache-dir"; Filename.concat dir "store" ]
    @ match log with Some l -> [ "--access-log"; l ] | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Affinity.pin_pass 0;
  let pid = Unix.create_process !impactc (Array.of_list args) null null w in
  Affinity.unpin ();
  Unix.close w;
  Unix.close null;
  let s = { pid; port = 0; err = r; dir; log } in
  live_servers := s :: !live_servers;
  { s with port = read_banner r }

(* Graceful drain; the server must exit 0. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] s.pid in
  live_servers := List.filter (fun x -> x.pid <> s.pid) !live_servers;
  Unix.close s.err;
  status = Unix.WEXITED 0

let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
    !live_servers;
  live_servers := [];
  rm_rf tmp_root

(* ---- The metrics op ---- *)

type snapshot = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  rejected : int;
  peak_queue : int;
}

let metrics s =
  let j = Result.get_ok (J.parse (Client.request ~port:s.port {|{"op": "metrics"}|})) in
  let get path =
    match List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path with
    | Some (J.Int n) -> n
    | _ -> failwith ("serve: metrics op lacks " ^ String.concat "." path)
  in
  {
    mem_hits = get [ "cache"; "mem_hits" ];
    disk_hits = get [ "cache"; "disk_hits" ];
    misses = get [ "cache"; "misses" ];
    stores = get [ "cache"; "stores" ];
    rejected = get [ "executor"; "rejected" ];
    peak_queue = get [ "executor"; "peak_queue" ];
  }

(* ---- Answers ---- *)

let field name line =
  match J.parse line with Ok j -> J.member name j | Error _ -> None

let answer_ok line = field "ok" line = Some (J.Bool true)

let answer_cycles line = match field "cycles" line with Some (J.Int n) -> n | _ -> 0

let answer_cache line = match field "cache" line with Some (J.Str s) -> s | _ -> "-"

let answers_of (rs : Client.result array) = Array.concat (Array.to_list (Array.map (fun (r : Client.result) -> r.Client.answers) rs))

(* ---- Variants in-process ---- *)

(* What the service evaluates for a variant: subject, options, level,
   machine, and the store key. *)
let variant_query (v : Gen.variant) =
  let open Impact_core in
  let s = subject v.Gen.v_loop in
  let opts = Opts.make ~unroll:v.Gen.v_unroll ~sched:(if v.Gen.v_sched = "pipe" then `Pipe else `List) () in
  let level = Option.get (Level.of_string v.Gen.v_level) in
  let machine =
    match v.Gen.v_core with
    | Gen.Inorder -> Impact_ir.Machine.make ~issue:v.Gen.v_issue ()
    | Gen.Ooo rob -> Impact_ir.Machine.ooo ~issue:v.Gen.v_issue ~rob ()
  in
  (s, opts, level, machine, Impact_svc.Query.of_ast ~ast:s.Experiment.ast ~opts level machine)

let variants_by_line ~seed =
  let t = Hashtbl.create 65536 in
  Array.iter (fun v -> Hashtbl.replace t (Gen.variant_line v) v) (Gen.miss_variants ~seed);
  t

(* ---- Set-up and the timed phase ---- *)

type setup = { srv : server; bases : Client.result array }

(* The set-up pass: every line once, split over the timed phase's
   connection shape. *)
let setup_pass srv lines =
  let cursor = Array.make conns 0 in
  let next k =
    let i = (cursor.(k) * conns) + k in
    cursor.(k) <- cursor.(k) + 1;
    if i < Array.length lines then Some lines.(i) else None
  in
  let results, _, _ = Client.drive ~port:srv.port ~conns ~window ~next ~deadline:infinity () in
  results

let setup ~access_log () =
  let srv = spawn ~access_log in
  { srv; bases = setup_pass srv Gen.base_lines }

let discard s = ignore (stop s.srv)

(* One burst of the timed phase: the closed loop run for [burst_s] and
   drained, so that the calibration slices after it run on an idle
   server. *)
type burst = {
  b_results : Client.result array;
  b_dur : float;  (* first request sent to last answer *)
  b_cpu : float;  (* server CPU seconds *)
  b_cal : Calib.sample list;  (* the calibration slices on either side *)
}

type phase = {
  bursts : burst list;
  results : Client.result array;  (* every burst's connections, in order *)
  cal : Calib.sample list;
  rss_mb : float;
  m0 : snapshot;
  m1 : snapshot;
  clean_exit : bool;
}

(* Each connection's share of the seeded variants. [exhausted] is set
   when a connection has used up its share of the option space. *)
let request_stream ~seed ~exhausted =
  let vs = Gen.miss_variants ~seed in
  let streams = Array.init conns (fun conn -> Gen.miss_stream vs ~conns ~conn) in
  fun k ->
    match streams.(k) () with
    | Some v -> Some (Gen.variant_line v)
    | None -> exhausted := true; None

(* Burst length: short enough that the slices between bursts follow
   the host's phases, long enough that draining the loop at its end
   costs little. *)
let burst_s = 1.5

(* Calibration slices on the server's CPU, while the server is idle.
   The first slice refills the L2 cache the server left behind and is
   not kept, so every kept slice runs warm. *)
let calibrate () =
  Affinity.pin_pass 0;
  ignore (Calib.slice ());
  let samples = List.init 3 (fun _ -> Calib.slice ()) in
  Affinity.unpin ();
  samples

(* The server grows with every entry it stores, so its peak RSS is read
   after one block of answers, where every run has stored the same
   number. *)
let timed_phase ~seed ~seconds (s : setup) =
  let m0 = metrics s.srv in
  let rss () = peak_rss_mb (string_of_int s.srv.pid) in
  let block_rss = ref nan in
  let exhausted = ref false in
  let next = request_stream ~seed ~exhausted in
  let t_end = now () +. seconds in
  let received = ref 0 in
  let rec go bursts cal =
    if now () >= t_end || !exhausted then List.rev bursts
    else begin
      let left = Gen.block_size - !received in
      let results, (t0, c0), (t1, c1) =
        Client.drive ~probe:(fun () -> proc_cpu_s s.srv.pid)
          ~on_count:(if left > 0 then (left, fun () -> block_rss := rss ()) else (0, ignore))
          ~port:s.srv.port ~conns ~window ~next ~deadline:(Float.min t_end (now () +. burst_s)) ()
      in
      let after = calibrate () in
      received := !received + Array.length (answers_of results);
      go ({ b_results = results; b_dur = t1 -. t0; b_cpu = c1 -. c0; b_cal = cal @ after } :: bursts) after
    end
  in
  let bursts = go [] (calibrate ()) in
  let results = Array.concat (List.map (fun b -> b.b_results) bursts) in
  if !exhausted then
    info "serve-miss: the option space ran out after %d requests; the timed phase ended early"
      (Array.length (answers_of results));
  (* A run too short to finish a block reads it at the end. *)
  let rss_mb = if Float.is_nan !block_rss then rss () else !block_rss in
  let m1 = metrics s.srv in
  let clean_exit = stop s.srv in
  let cal = List.sort_uniq compare (List.concat_map (fun b -> b.b_cal) bursts) in
  { bursts; results; cal; rss_mb; m0; m1; clean_exit }

(* The phase's figures at the reference speed (calib.ml): each burst's
   time, CPU and latencies are scaled by the calibration slices on
   either side of it, and the figures are taken over the whole phase,
   so that each covers every request the run sent. A burst shorter than
   half the length (the last, cut by the deadline) is left out. *)
type figures = { rps : float; p50 : float; tail : Stats.tail; cpu_us : float; n_bursts : int }

let figures ph =
  let full = List.filter (fun b -> b.b_dur >= burst_s /. 2.0) ph.bursts in
  let sum f = List.fold_left (fun acc b -> acc +. f b) 0.0 full in
  let n b = float_of_int (Array.length (answers_of b.b_results)) in
  let lat =
    List.concat_map
      (fun b ->
        let fw = Calib.factor_wall b.b_cal in
        List.concat_map (fun (r : Client.result) -> Array.to_list (Array.map (fun l -> l *. fw) r.Client.lat_ms))
          (Array.to_list b.b_results))
      full
  in
  let t = Stats.tail lat in
  {
    rps = sum n /. sum (fun b -> b.b_dur *. Calib.factor_wall b.b_cal);
    p50 = Stats.median lat;
    tail = t;
    cpu_us = sum (fun b -> b.b_cpu *. Calib.factor_cpu b.b_cal) *. 1e6 /. Float.max 1.0 (sum n);
    n_bursts = List.length full;
  }

let responses ph = Array.fold_left (fun acc (r : Client.result) -> acc + Array.length r.Client.answers) 0 ph.results

(* Premises: serve-miss never repeats a query and never hits. A run
   whose premise fails reports no numbers. *)
let check_premise ph =
  let d f = f ph.m1 - f ph.m0 in
  let requests = Array.concat (Array.to_list (Array.map (fun (r : Client.result) -> r.Client.requests) ph.results)) in
  let seen = Hashtbl.create (Array.length requests) in
  Array.iter (fun l -> premise (not (Hashtbl.mem seen l)) "serve-miss: a query repeated"; Hashtbl.add seen l ()) requests;
  premise
    (d (fun m -> m.mem_hits + m.disk_hits) = 0 && Array.for_all (fun a -> answer_cache a = "miss") (answers_of ph.results))
    "serve-miss: a timed request hit the cache"

(* Output checks, each failure counted once:
   - every answer is byte-identical to in-process [Service.serve_lines]
     on the same connection's lines, against an in-process store in the
     same state (the set-up's bases, then the timed lines);
   - every base's outputs equal the kernel's reference digest, and every
     timed variant's outputs equal its issue-1 Conv base within
     [same_result]'s tolerance. The in-process service runs the same
     compile code as the server, so only this second check sees a
     pipelined or out-of-order run computing wrong values;
   - the server drains and exits 0. *)
let check_answers ~seed (s : setup) ph =
  let dir = fresh_dir "oracle" in
  let store = Store.open_store dir in
  let failed = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> if !failed < 5 then progress "serve-miss: %s" m; incr failed) fmt in
  let compare (r : Client.result) =
    let expected = Array.of_list (Service.serve_lines ~store:(Some store) (Array.to_list r.Client.requests)) in
    if Array.length expected <> Array.length r.Client.answers then
      fail "%d answers on a connection, %d expected" (Array.length r.Client.answers) (Array.length expected);
    Array.iteri
      (fun i a -> if i >= Array.length expected || expected.(i) <> a then fail "answer %d differs: %s" (i + 1) a)
      r.Client.answers
  in
  Array.iter compare s.bases;
  Array.iter compare ph.results;
  let digests = base_digests () in
  let by_line = variants_by_line ~seed in
  let base_ok = Hashtbl.create 64 in
  Array.iter
    (fun (r : Client.result) ->
      Array.iter
        (fun l ->
          let v = Hashtbl.find by_line l in
          let sub, opts, _, _, q = variant_query v in
          let base = Impact_core.Experiment.base_measurement_with opts sub in
          let key = (v.Gen.v_loop, v.Gen.v_unroll) in
          if not (Hashtbl.mem base_ok key) then begin
            Hashtbl.add base_ok key ();
            if List.assoc_opt v.Gen.v_loop digests <> Some (outputs_digest base.Impact_core.Compile.result) then
              fail "%s unroll %d: base outputs differ from the reference digest" v.Gen.v_loop v.Gen.v_unroll
          end;
          match Store.lookup store q with
          | None -> fail "%s: no in-process measurement" l
          | Some m ->
            if not (same_result base.Impact_core.Compile.result m.Impact_core.Compile.result) then
              fail "%s: outputs differ from the base" l)
        r.Client.requests)
    ph.results;
  rm_rf dir;
  if not ph.clean_exit then fail "the server did not exit cleanly";
  !failed

(* Mean simulated cycles per request over the first block: every kernel
   at every issue width once. Connection [k] of every burst carries the
   [k]th stream. *)
let gen_cycles ph =
  let first = Gen.block_size / conns in
  let per_conn k =
    Array.concat
      (List.filteri (fun i _ -> i mod conns = k) (Array.to_list (Array.map (fun (r : Client.result) -> r.Client.answers) ph.results)))
  in
  let total, n =
    List.fold_left
      (fun (acc, n) k ->
        let a = per_conn k in
        Array.fold_left (fun (acc, n) l -> (acc + answer_cycles l, n + 1)) (acc, n) (Array.sub a 0 (min first (Array.length a))))
      (0, 0) (List.init conns Fun.id)
  in
  float_of_int total /. float_of_int (max 1 n)

let run ~seed ~seconds ~t_start =
  let s, setup_s =
    repeated_setup ~k:7 ~t_start ~factor:(fun () -> Calib.factor_wall (calibrate ())) ~setup:(setup ~access_log:false)
      ~discard
  in
  let ph = timed_phase ~seed ~seconds s in
  check_premise ph;
  let failed = check_answers ~seed s ph + (ph.m1.rejected - ph.m0.rejected) in
  let answers = answers_of ph.results in
  let n = Array.length answers in
  let f = figures ph in
  info "serve-miss: %d responses over %d connections x window %d, %d bursts of %g s" n conns window f.n_bursts burst_s;
  spread "burst rps as measured"
    (List.map (fun b -> float_of_int (Array.length (answers_of b.b_results)) /. b.b_dur) ph.bursts);
  spread "calibration slice ms" (List.map (fun c -> c.Calib.wall *. 1e3) ph.cal);
  info "request latency: p%.2f of %d samples (%d beyond) = %.4f ms" (100.0 *. f.tail.Stats.t_q) f.tail.Stats.t_n
    f.tail.Stats.t_beyond f.tail.Stats.t_value;
  emit ~trace:false ~attempted:n ~failed
    [
      ("setup_s", setup_s);
      ("wall_s", 600.0 /. f.rps);
      ("rps", f.rps);
      ("p50_ms", f.p50);
      ("p99_ms", f.tail.Stats.t_value);
      ("server_cpu_us", f.cpu_us);
      ("peak_rss_mb", ph.rss_mb);
      ("gen_cycles", gen_cycles ph);
      ("decided_frac", float_of_int (List.length (List.filter answer_ok (Array.to_list answers))) /. float_of_int (max 1 n));
    ]

(* ---- Traced run ---- *)

type access = { a_conn : int; a_line : int; total : float; queue : float; eval : float; write : float }

(* The server's per-request access-log records of query events. *)
let access_records path =
  List.filter_map
    (fun l ->
      match J.parse l with
      | Ok j when J.member "event" j = Some (J.Str "query") ->
        let num k = match J.member k j with Some (J.Float f) -> f | Some (J.Int n) -> float_of_int n | _ -> 0.0 in
        Some
          {
            a_conn = int_of_float (num "conn");
            a_line = int_of_float (num "line");
            total = num "total_ms";
            queue = num "queue_ms";
            eval = num "eval_ms";
            write = num "write_ms";
          }
      | _ -> None)
    (Host.read_lines path)

(* Records of the timed phase's connections: the last query
   connections the server accepted, one per connection of each burst,
   matched to the client's in order. *)
let timed_records ph path =
  let recs = access_records path in
  let ids = List.sort_uniq compare (List.map (fun a -> a.a_conn) recs) in
  let timed = List.filteri (fun i _ -> i >= List.length ids - Array.length ph.results) ids in
  List.mapi (fun k id -> (ph.results.(k), List.filter (fun a -> a.a_conn = id) recs)) timed

let p50_p99 name xs = [ (name ^ ".p50", Stats.median xs); (name ^ ".p99", (Stats.tail xs).Stats.t_value) ]

let server_layers ph path =
  let per_conn = timed_records ph path in
  let recs = List.concat_map snd per_conn in
  (* Wire time: what the client saw beyond the server's own total. *)
  let wire =
    List.concat_map
      (fun ((r : Client.result), rs) ->
        List.filter_map
          (fun a ->
            if a.a_line >= 1 && a.a_line <= Array.length r.Client.lat_ms then
              Some (r.Client.lat_ms.(a.a_line - 1) -. a.total)
            else None)
          rs)
      per_conn
  in
  let d f = float_of_int (f ph.m1 - f ph.m0) in
  let hits = d (fun m -> m.mem_hits + m.disk_hits) and misses = d (fun m -> m.misses) in
  p50_p99 "svc.eval_ms" (List.map (fun a -> a.eval) recs)
  @ p50_p99 "exec.queue_ms" (List.map (fun a -> a.queue) recs)
  @ p50_p99 "net.write_ms" (List.map (fun a -> a.write) recs)
  @ p50_p99 "net.wire_ms" wire
  @ [
      ("svc.cache.mem_hits", d (fun m -> m.mem_hits));
      ("svc.cache.disk_hits", d (fun m -> m.disk_hits));
      ("svc.cache.misses", misses);
      ("svc.cache.stores", d (fun m -> m.stores));
      ("svc.cache.hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
      ("exec.rejected", d (fun m -> m.rejected));
      ("exec.peak_queue", float_of_int ph.m1.peak_queue);
    ]

let time_us f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1e6)

let median_us f xs = Stats.median (List.map (fun x -> snd (time_us (fun () -> f x))) xs)

let first_requests ph n =
  List.concat_map
    (fun (r : Client.result) -> List.filteri (fun i _ -> i < n) (Array.to_list r.Client.requests))
    (Array.to_list ph.results)

(* Compile.measure_with's path for one serve-miss variant, layer by
   layer; returns the query and the measurement the server stored. *)
let replay_variant (v : Gen.variant) =
  let open Impact_ir in
  let open Impact_core in
  let s, opts, level, machine, q = variant_query v in
  let p = Trace.span "fir.lower" (fun () -> Impact_fir.Lower.lower s.Experiment.ast) in
  let p = Trace.span "core.level" (fun () -> Level.apply ?unroll_factor:opts.Opts.unroll level p) in
  let p = Trace.span "sched.superblock" (fun () -> Impact_sched.Superblock.run p) in
  Trace.count "core.ir_insns" (float_of_int (Prog.insn_count p));
  let code =
    match opts.Opts.sched with
    | `List -> Trace.span "sched.list" (fun () -> Impact_sched.List_sched.run machine p)
    | `Pipe ->
      let code, reps = Trace.span "pipe.run" (fun () -> Impact_pipe.Pipe.run_with_report machine p) in
      List.iter
        (fun (r : Impact_pipe.Pipe.report) ->
          match r.Impact_pipe.Pipe.status with
          | Impact_pipe.Pipe.Pipelined _ -> Trace.count "pipe.pipelined" 1.0
          | Impact_pipe.Pipe.Skipped _ -> Trace.count "pipe.skipped" 1.0)
        reps;
      code
  in
  Trace.count "sched.code_insns" (float_of_int (Prog.insn_count code));
  let result =
    match machine.Machine.core with
    | Machine.Inorder ->
      let r = Trace.span "sim.run" (fun () -> Impact_sim.Sim.run machine code) in
      Trace.count "sim.dyn_insns" (float_of_int r.Impact_sim.Sim.dyn_insns);
      r
    | Machine.Ooo _ ->
      let r = Trace.span "ooo.run" (fun () -> Impact_ooo.Ooo.run machine code) in
      Trace.count "ooo.dyn_insns" (float_of_int r.Impact_sim.Sim.dyn_insns);
      r
  in
  let usage = Trace.span "regalloc.measure" (fun () -> Impact_regalloc.Regalloc.measure code) in
  ignore (Trace.span "core.base" (fun () -> Experiment.base_measurement_with opts s));
  ( q,
    {
      Compile.level;
      machine;
      cycles = result.Impact_sim.Sim.cycles;
      dyn_insns = result.Impact_sim.Sim.dyn_insns;
      usage;
      result;
    } )

(* Variants replayed in-process per traced serve-miss run. *)
let replayed = 60

(* serve-miss's compile and store layers in-process, on the first
   timed variants; every replayed measurement must match the server's
   answer. Returns the layer values and the mismatches. *)
let miss_layers ~seed ph =
  let by_line = variants_by_line ~seed in
  let answers = Hashtbl.create 4096 in
  Array.iter
    (fun (r : Client.result) -> Array.iteri (fun i l -> Hashtbl.replace answers l r.Client.answers.(i)) r.Client.requests)
    ph.results;
  let lines = first_requests ph (replayed / conns) in
  let dir = fresh_dir "layers" in
  let st = Store.open_store (Filename.concat dir "replay") in
  let lookups = ref [] and adds = ref [] and failed = ref 0 in
  Impact_core.Experiment.clear_base_cache ();
  Impact_obs.Obs.reset ();
  Impact_obs.Obs.set_collecting true;
  Trace.reset ();
  Trace.enabled := true;
  let (), gc =
    with_gc (fun () ->
      List.iter
        (fun l ->
          let q, m = replay_variant (Hashtbl.find by_line l) in
          let _, us = time_us (fun () -> Store.lookup st q) in
          lookups := us :: !lookups;
          let _, us = time_us (fun () -> Store.add st q m) in
          adds := us :: !adds;
          if m.Impact_core.Compile.cycles <> answer_cycles (Hashtbl.find answers l) then begin
            progress "serve-miss: replayed %s disagrees with the server" l;
            incr failed
          end)
        lines)
  in
  Trace.enabled := false;
  Impact_obs.Obs.set_collecting false;
  let fresh = Store.open_store (Filename.concat dir "answer") in
  let r =
    gc
    @ layer_values (Trace.totals ())
    @ [
        ("svc.answer_us.p50", median_us (fun l -> Service.answer_line_ex ~store:(Some fresh) ~line:1 l) lines);
        ("svc.digest_us.p50", median_us Service.route_digest lines);
        ("svc.store.lookup_us.p50", Stats.median !lookups);
        ("svc.store.add_us.p50", Stats.median !adds);
      ]
  in
  rm_rf dir;
  (r, !failed)

(* One untraced and one traced phase (the server writing its access
   log), each on a fresh server; the difference in wall_s is the
   tracing overhead. *)
let run_traced ~seed ~seconds =
  let phase ~access_log =
    let s = setup ~access_log () in
    let ph = timed_phase ~seed ~seconds s in
    check_premise ph;
    let failed = check_answers ~seed s ph in
    (s, ph, failed, 600.0 /. (figures ph).rps)
  in
  let _, ph_u, failed_u, wall_u = phase ~access_log:false in
  let s, ph, failed_t, wall_t = phase ~access_log:true in
  let inproc, failed_r = miss_layers ~seed ph in
  info "traced wall %.6f s, untraced %.6f s (per 600 requests)" wall_t wall_u;
  let values =
    (("trace.overhead_s", wall_t -. wall_u) :: server_layers ph (Option.get s.srv.log))
    @ inproc
  in
  emit ~trace:true ~attempted:(responses ph_u + responses ph) ~failed:(failed_u + failed_t + failed_r) values
