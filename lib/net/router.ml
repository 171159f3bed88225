module Obs = Impact_obs.Obs
module Json = Impact_svc.Json
module Service = Impact_svc.Service

type config = {
  host : string;
  port : int;
  backends : (string * int) array;
  max_line : int;
  faults : Faults.t;
  access_log : string option;
}

(* ---- Small string helpers ---- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

(* Shard responses carry the shard link's line numbering; patch the
   first ["line": N] back to the client's. Responses are the service's
   own compact rendering, so the pattern is exact. *)
let rewrite_line resp ~line =
  match find_sub resp "\"line\": " with
  | None -> resp
  | Some i ->
    let j = i + String.length "\"line\": " in
    let e = ref j in
    while !e < String.length resp && resp.[!e] >= '0' && resp.[!e] <= '9' do
      incr e
    done;
    if !e = j then resp
    else
      String.sub resp 0 j
      ^ string_of_int line
      ^ String.sub resp !e (String.length resp - !e)

let error_json ~line ~error ~detail =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool false);
         ("line", Json.Int line);
         ("error", Json.Str error);
         ("detail", Json.Str detail);
       ])

(* The router never parses forwarded responses; outcome classification
   for its counters and histograms is a prefix/substring check against
   the fixed records the shards emit. *)
let classify resp =
  if String.length resp >= 11 && String.sub resp 0 11 = "{\"ok\": true" then "ok"
  else if contains resp "\"error\": \"overloaded\"" then "shed"
  else if contains resp "\"error\": \"deadline\"" then "deadline"
  else "error"

let inline_op raw =
  match Json.parse raw with
  | Ok j -> (
    match Json.member "op" j with
    | Some (Json.Str "health") -> Some `Health
    | Some (Json.Str "metrics") -> Some `Metrics
    | _ -> None)
  | Error _ -> None

(* ---- Cells and links ----

   One [rcell] per answered client line, shared between the client
   connection's order queue and (for forwarded lines) exactly one shard
   link's pending queue: the link fills it when the positional response
   arrives, the connection pops the filled prefix into its write queue.
   An [op] line instead consumes one pending slot on {e every} live
   link; the last snapshot to arrive completes the aggregate. *)

type rcell = {
  r_conn : int;
  r_line : int;
  r_read : float;
  r_kind : string;  (* query | health | metrics | too_long *)
  mutable r_done : float;
  mutable r_outcome : string;
  mutable r_resp : string option;
}

type slot = Fwd of rcell | Op of agg

and agg = {
  ag_cell : rcell;
  ag_op : [ `Health | `Metrics ];
  mutable ag_left : int;
  mutable ag_parts : (int * Json.t) list;  (* shard id, raw snapshot *)
}

type link = {
  lk_shard : int;
  mutable lk_fd : Unix.file_descr option;  (* [None] once the link died *)
  lk_framer : Evloop.Framer.t;
  lk_out : Evloop.Outq.t;
  lk_pending : slot Queue.t;
  mutable lk_want_write : bool;
}

type rconn = {
  rc_id : int;
  rc_fd : Unix.file_descr;
  rc_rd_faults : Faults.stream;
  rc_wr_faults : Faults.stream;
  rc_framer : Evloop.Framer.t;
  mutable rc_lineno : int;
  rc_cells : rcell Queue.t;
  rc_out : Evloop.Outq.t;
  mutable rc_read_open : bool;
  mutable rc_alive : bool;
  mutable rc_want_write : bool;
}

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  lport : int;
  ring : Shard_route.t;
  links : link array;
  started_at : float;
  wake : Evloop.Wake.t;
  draining : bool Atomic.t;
  stop_sent : bool Atomic.t;
  finished : bool Atomic.t;
  conns : (Unix.file_descr, rconn) Hashtbl.t;
  mutable next_conn : int;
  mutable active : int;
  mutable accepting : bool;
  mutable loop_thread : Thread.t option;
  (* Client-facing totals; single-writer (the loop thread). *)
  mutable c_accepted : int;
  mutable c_requests : int;
  mutable c_responses : int;
  mutable c_shed : int;
  mutable c_deadlined : int;
  mutable c_too_long : int;
  mutable c_dropped : int;
  access : out_channel option;
}

let port t = t.lport

let stats t =
  {
    Listener.accepted = t.c_accepted;
    requests = t.c_requests;
    responses = t.c_responses;
    shed = t.c_shed;
    deadlined = t.c_deadlined;
    too_long = t.c_too_long;
    dropped_conns = t.c_dropped;
  }

(* ---- Aggregate op records ----

   The router is authoritative for everything clients can observe
   (request counters, latency histograms); executor occupancy and cache
   statistics are summed across the shard snapshots; the raw per-shard
   records ride along for diagnosis. *)

let part_int p field =
  match Json.member field p with Some (Json.Int n) -> n | _ -> 0

let sum_field parts field =
  Json.Int (List.fold_left (fun a (_, p) -> a + part_int p field) 0 parts)

let sum_sub_field parts obj field =
  Json.Int
    (List.fold_left
       (fun a (_, p) ->
         a + match Json.member obj p with Some o -> part_int o field | None -> 0)
       0 parts)

let sum_cache parts =
  let objs =
    List.filter_map
      (fun (_, p) ->
        match Json.member "cache" p with
        | Some (Json.Obj _ as o) -> Some o
        | _ -> None)
      parts
  in
  if objs = [] then Json.Null
  else
    let f field =
      Json.Int (List.fold_left (fun a o -> a + part_int o field) 0 objs)
    in
    Json.Obj
      [
        ("hits", f "hits");
        ("mem_hits", f "mem_hits");
        ("disk_hits", f "disk_hits");
        ("misses", f "misses");
        ("stores", f "stores");
        ("corrupt", f "corrupt");
        ("stale", f "stale");
      ]

let per_shard parts =
  Json.List
    (List.map
       (fun (k, p) ->
         match p with
         | Json.Obj members ->
           Json.floats_as_reals (Json.Obj (("shard", Json.Int k) :: members))
         | other -> Json.Obj [ ("shard", Json.Int k); ("snapshot", other) ])
       (List.sort compare parts))

let counters_json t =
  Json.Obj
    [
      ("accepted", Json.Int t.c_accepted);
      ("requests", Json.Int t.c_requests);
      ("responses", Json.Int t.c_responses);
      ("shed", Json.Int t.c_shed);
      ("deadline", Json.Int t.c_deadlined);
      ("too_long", Json.Int t.c_too_long);
      ("dropped_conns", Json.Int t.c_dropped);
    ]

let agg_health t ~line parts =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("line", Json.Int line);
         ("op", Json.Str "health");
         ("uptime_s", Json.Float (Obs.now () -. t.started_at));
         ("queue_depth", sum_field parts "queue_depth");
         ("queue_capacity", sum_field parts "queue_capacity");
         ("running", sum_field parts "running");
         ("workers", sum_field parts "workers");
         ("conns", Json.Int t.active);
         ("accepted", Json.Int t.c_accepted);
         ("requests", Json.Int t.c_requests);
         ("responses", Json.Int t.c_responses);
         ("shed", Json.Int t.c_shed);
         ("deadline", Json.Int t.c_deadlined);
         ("draining", Json.Bool (Atomic.get t.draining));
         ("cache", sum_cache parts);
         ("shards", Json.Int (Array.length t.links));
         ("per_shard", per_shard parts);
       ])

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let agg_metrics t ~line parts =
  let hists =
    List.filter
      (fun (h : Obs.Hist.snapshot) ->
        starts_with ~prefix:"serve." h.Obs.Hist.h_name)
      (Obs.Hist.snapshot ())
  in
  let ex f = sum_sub_field parts "executor" f in
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("line", Json.Int line);
         ("op", Json.Str "metrics");
         ("uptime_s", Json.Float (Obs.now () -. t.started_at));
         ("conns", Json.Int t.active);
         ("draining", Json.Bool (Atomic.get t.draining));
         ( "executor",
           Json.Obj
             [
               ("queue_depth", ex "queue_depth");
               ("queue_capacity", ex "queue_capacity");
               ("running", ex "running");
               ("workers", ex "workers");
               ("submitted", ex "submitted");
               ("completed", ex "completed");
               ("rejected", ex "rejected");
               ("peak_queue", ex "peak_queue");
             ] );
         ("counters", counters_json t);
         ("cache", sum_cache parts);
         ( "histograms",
           Json.Obj
             (List.map
                (fun (h : Obs.Hist.snapshot) ->
                  (h.Obs.Hist.h_name, Listener.hist_json h))
                hists) );
         ("shards", Json.Int (Array.length t.links));
         ("per_shard", per_shard parts);
       ])

(* ---- Filling cells ---- *)

let fill cell ~outcome resp =
  cell.r_outcome <- outcome;
  cell.r_done <- Obs.now ();
  cell.r_resp <- Some resp

let fill_fwd t cell resp =
  let resp = rewrite_line resp ~line:cell.r_line in
  let outcome = classify resp in
  (match outcome with
  | "shed" ->
    t.c_shed <- t.c_shed + 1;
    Obs.count "net.shed"
  | "deadline" ->
    t.c_deadlined <- t.c_deadlined + 1;
    Obs.count "net.deadline"
  | _ -> ());
  fill cell ~outcome resp

let finalize_agg t ag =
  let parts = ag.ag_parts in
  let record =
    match ag.ag_op with
    | `Health -> agg_health t ~line:ag.ag_cell.r_line parts
    | `Metrics -> agg_metrics t ~line:ag.ag_cell.r_line parts
  in
  fill ag.ag_cell ~outcome:"ok" record

let down_part error = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str error) ]

let drop_slot t shard slot =
  match slot with
  | Fwd cell ->
    fill cell ~outcome:"error"
      (error_json ~line:cell.r_line ~error:"shard unavailable"
         ~detail:(Printf.sprintf "shard %d connection lost" shard))
  | Op ag ->
    ag.ag_parts <- (shard, down_part "unreachable") :: ag.ag_parts;
    ag.ag_left <- ag.ag_left - 1;
    if ag.ag_left = 0 then finalize_agg t ag

(* A dead shard answers its in-flight lines with error records and is
   excluded from routing from then on; healthy shards are unaffected. *)
let kill_link t lk =
  match lk.lk_fd with
  | None -> ()
  | Some fd ->
    lk.lk_fd <- None;
    lk.lk_want_write <- false;
    Obs.count "net.router.link_down";
    Evloop.Outq.abort lk.lk_out;
    (try Unix.close fd with _ -> ());
    while not (Queue.is_empty lk.lk_pending) do
      drop_slot t lk.lk_shard (Queue.pop lk.lk_pending)
    done

let on_link_item t lk item =
  match item with
  | `Over ->
    (* A response line over the (huge) link bound means the stream is
       corrupt; positional pairing cannot recover. *)
    kill_link t lk
  | `Line resp -> (
    if not (Queue.is_empty lk.lk_pending) then
      match Queue.pop lk.lk_pending with
      | Fwd cell -> fill_fwd t cell resp
      | Op ag ->
        let part =
          match Json.parse resp with
          | Ok j -> j
          | Error e -> down_part (Printf.sprintf "bad snapshot: %s" e)
        in
        ag.ag_parts <- (lk.lk_shard, part) :: ag.ag_parts;
        ag.ag_left <- ag.ag_left - 1;
        if ag.ag_left = 0 then finalize_agg t ag)

let flush_link t lk =
  match lk.lk_fd with
  | None -> ()
  | Some fd ->
    if not (Evloop.Outq.is_empty lk.lk_out) then (
      match Evloop.Outq.flush lk.lk_out fd with
      | `Drained -> lk.lk_want_write <- false
      | `Blocked -> lk.lk_want_write <- true
      | `Error -> kill_link t lk)

let link_read t lk buf =
  match lk.lk_fd with
  | None -> ()
  | Some fd -> (
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> kill_link t lk
    | n -> Evloop.Framer.feed lk.lk_framer buf n (fun item -> on_link_item t lk item)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error (_, _, _) -> kill_link t lk)

(* ---- Request lifecycle close-out ----

   The router has no queue/eval stages of its own (those happen in the
   shards), so it feeds only the total-by-outcome and write histograms,
   and its access records carry [null] for the cache, loop and
   queue/eval timings. *)

let finish_cell t cell ~t1 ~bytes ~wrote =
  Obs.Hist.observe ("serve.latency.total." ^ cell.r_outcome) (t1 -. cell.r_read);
  Obs.Hist.observe "serve.latency.write" (t1 -. cell.r_done);
  match t.access with
  | None -> ()
  | Some ch ->
    let record =
      Json.Obj
        [
          ("ts_s", Json.Float (cell.r_read -. t.started_at));
          ("conn", Json.Int cell.r_conn);
          ("line", Json.Int cell.r_line);
          ("event", Json.Str cell.r_kind);
          ("outcome", Json.Str cell.r_outcome);
          ("cache", Json.Null);
          ("loop", Json.Null);
          ("total_ms", Json.Float (Float.max 0.0 ((t1 -. cell.r_read) *. 1e3)));
          ("queue_ms", Json.Null);
          ("eval_ms", Json.Null);
          ("write_ms", Json.Float (Float.max 0.0 ((t1 -. cell.r_done) *. 1e3)));
          ("bytes", Json.Int bytes);
          ("wrote", Json.Bool wrote);
        ]
    in
    output_string ch (Json.to_string record);
    output_char ch '\n';
    flush ch

(* ---- Client-side handling (all on the loop thread) ---- *)

let new_cell ~conn ~line ~kind t_read =
  {
    r_conn = conn;
    r_line = line;
    r_read = t_read;
    r_kind = kind;
    r_done = t_read;
    r_outcome = "ok";
    r_resp = None;
  }

let handle_request t cn ~t_read raw =
  let line = cn.rc_lineno in
  t.c_requests <- t.c_requests + 1;
  Obs.count "net.request";
  if Faults.slow_read cn.rc_rd_faults then begin
    Obs.count "net.fault.slow_read";
    Faults.delay cn.rc_rd_faults
  end;
  match inline_op raw with
  | Some op ->
    let kind = match op with `Health -> "health" | `Metrics -> "metrics" in
    Obs.count ("net." ^ kind);
    let cell = new_cell ~conn:cn.rc_id ~line ~kind t_read in
    Queue.add cell cn.rc_cells;
    let live =
      Array.to_list t.links |> List.filter (fun lk -> lk.lk_fd <> None)
    in
    if live = [] then
      fill cell ~outcome:"error"
        (error_json ~line ~error:"shard unavailable" ~detail:"no live shards")
    else begin
      let ag =
        { ag_cell = cell; ag_op = op; ag_left = List.length live; ag_parts = [] }
      in
      List.iter
        (fun lk ->
          Queue.add (Op ag) lk.lk_pending;
          Evloop.Outq.push lk.lk_out (raw ^ "\n");
          flush_link t lk)
        live
    end
  | None -> (
    let slow = Faults.slow_cell cn.rc_rd_faults in
    if slow then begin
      Obs.count "net.fault.slow_cell";
      Faults.delay cn.rc_rd_faults
    end;
    let cell = new_cell ~conn:cn.rc_id ~line ~kind:"query" t_read in
    Queue.add cell cn.rc_cells;
    let digest =
      match Service.route_digest raw with
      | Some d -> d
      | None -> Digest.to_hex (Digest.string raw)
    in
    let k = Shard_route.route t.ring ~digest in
    let lk = t.links.(k) in
    match lk.lk_fd with
    | None ->
      fill cell ~outcome:"error"
        (error_json ~line ~error:"shard unavailable"
           ~detail:(Printf.sprintf "shard %d connection lost" k))
    | Some _ ->
      Queue.add (Fwd cell) lk.lk_pending;
      Evloop.Outq.push lk.lk_out (raw ^ "\n");
      flush_link t lk)

let handle_line t cn item =
  cn.rc_lineno <- cn.rc_lineno + 1;
  let t_read = Obs.now () in
  match item with
  | `Over ->
    t.c_too_long <- t.c_too_long + 1;
    Obs.count "net.too_long";
    let cell =
      new_cell ~conn:cn.rc_id ~line:cn.rc_lineno ~kind:"too_long" t_read
    in
    Queue.add cell cn.rc_cells;
    fill cell ~outcome:"error"
      (Service.too_long_record ~line:cn.rc_lineno ~max_line:t.cfg.max_line)
  | `Line raw -> if String.trim raw <> "" then handle_request t cn ~t_read raw

let close_read t cn =
  if cn.rc_read_open then begin
    cn.rc_read_open <- false;
    match Evloop.Framer.final cn.rc_framer with
    | Some item -> handle_line t cn item
    | None -> ()
  end

let read_chunk t cn buf =
  match Unix.read cn.rc_fd buf 0 (Bytes.length buf) with
  | 0 -> close_read t cn
  | n -> Evloop.Framer.feed cn.rc_framer buf n (fun item -> handle_line t cn item)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> close_read t cn

let sever t cn =
  (try Unix.shutdown cn.rc_fd Unix.SHUTDOWN_ALL with _ -> ());
  cn.rc_alive <- false;
  close_read t cn

let promote t cn =
  while
    (not (Queue.is_empty cn.rc_cells))
    && (Queue.peek cn.rc_cells).r_resp <> None
  do
    let cell = Queue.pop cn.rc_cells in
    let resp = Option.get cell.r_resp in
    if cn.rc_alive then
      if Faults.drop_conn cn.rc_wr_faults then begin
        t.c_dropped <- t.c_dropped + 1;
        Obs.count "net.fault.drop_conn";
        cn.rc_alive <- false;
        Evloop.Outq.push cn.rc_out
          ~on_flush:(fun ~wrote:_ -> sever t cn)
          (String.sub resp 0 ((String.length resp + 1) / 2));
        finish_cell t cell ~t1:(Obs.now ()) ~bytes:(String.length resp)
          ~wrote:false
      end
      else
        Evloop.Outq.push cn.rc_out
          ~on_flush:(fun ~wrote ->
            if wrote then begin
              t.c_responses <- t.c_responses + 1;
              Obs.count "net.response"
            end;
            finish_cell t cell ~t1:(Obs.now ()) ~bytes:(String.length resp)
              ~wrote)
          (resp ^ "\n")
    else
      finish_cell t cell ~t1:(Obs.now ()) ~bytes:(String.length resp)
        ~wrote:false
  done

let flush_conn cn =
  if not (Evloop.Outq.is_empty cn.rc_out) then
    match Evloop.Outq.flush cn.rc_out cn.rc_fd with
    | `Drained -> cn.rc_want_write <- false
    | `Blocked -> cn.rc_want_write <- true
    | `Error ->
      cn.rc_want_write <- false;
      cn.rc_alive <- false

let conn_finished cn =
  (not cn.rc_read_open)
  && Queue.is_empty cn.rc_cells
  && Evloop.Outq.is_empty cn.rc_out

let close_conn t cn =
  (try Unix.close cn.rc_fd with _ -> ());
  Hashtbl.remove t.conns cn.rc_fd;
  t.active <- t.active - 1;
  Obs.count "net.conn.close"

let accept_burst t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.lfd with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
      ->
      continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | fd, _ ->
      t.c_accepted <- t.c_accepted + 1;
      Obs.count "net.accept";
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      let id = t.next_conn in
      t.next_conn <- id + 1;
      let cn =
        {
          rc_id = id;
          rc_fd = fd;
          rc_rd_faults = Faults.stream t.cfg.faults ~conn:id ~channel:0;
          rc_wr_faults = Faults.stream t.cfg.faults ~conn:id ~channel:1;
          rc_framer = Evloop.Framer.create ~max_line:t.cfg.max_line;
          rc_lineno = 0;
          rc_cells = Queue.create ();
          rc_out = Evloop.Outq.create ();
          rc_read_open = true;
          rc_alive = true;
          rc_want_write = false;
        }
      in
      Hashtbl.replace t.conns fd cn;
      t.active <- t.active + 1
  done

let begin_drain t =
  if t.accepting then begin
    Obs.count "net.drain";
    t.accepting <- false;
    (try Unix.close t.lfd with _ -> ());
    Hashtbl.iter (fun _ cn -> close_read t cn) t.conns
  end

let event_loop t =
  let buf = Bytes.create 4096 in
  let rec iterate () =
    if Atomic.get t.draining then begin_drain t;
    Hashtbl.iter
      (fun _ cn ->
        promote t cn;
        flush_conn cn)
      t.conns;
    Array.iter (fun lk -> flush_link t lk) t.links;
    let dead =
      Hashtbl.fold (fun _ cn acc -> if conn_finished cn then cn :: acc else acc)
        t.conns []
    in
    List.iter (fun cn -> close_conn t cn) dead;
    if Atomic.get t.draining && Hashtbl.length t.conns = 0 then ()
    else begin
      let rds = ref [ Evloop.Wake.fd t.wake ] in
      if t.accepting then rds := t.lfd :: !rds;
      let wrs = ref [] in
      Hashtbl.iter
        (fun fd cn ->
          if cn.rc_read_open then rds := fd :: !rds;
          if cn.rc_want_write then wrs := fd :: !wrs)
        t.conns;
      Array.iter
        (fun lk ->
          match lk.lk_fd with
          | Some fd ->
            rds := fd :: !rds;
            if lk.lk_want_write then wrs := fd :: !wrs
          | None -> ())
        t.links;
      match Unix.select !rds !wrs [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> iterate ()
      | r, w, _ ->
        Evloop.Wake.drain t.wake;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt t.conns fd with
            | Some cn when cn.rc_want_write -> flush_conn cn
            | Some _ -> ()
            | None ->
              Array.iter
                (fun lk -> if lk.lk_fd = Some fd then flush_link t lk)
                t.links)
          w;
        List.iter
          (fun fd ->
            if t.accepting && fd = t.lfd then accept_burst t
            else if fd <> Evloop.Wake.fd t.wake then
              match Hashtbl.find_opt t.conns fd with
              | Some cn when cn.rc_read_open -> read_chunk t cn buf
              | Some _ -> ()
              | None ->
                Array.iter
                  (fun lk -> if lk.lk_fd = Some fd then link_read t lk buf)
                  t.links)
          r;
        iterate ()
    end
  in
  iterate ();
  Array.iter (fun lk -> kill_link t lk) t.links;
  (match t.access with
  | Some ch -> ( try close_out ch with _ -> ())
  | None -> ());
  Evloop.Wake.close t.wake;
  Atomic.set t.finished true

(* ---- Lifecycle ---- *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      failwith (Printf.sprintf "cannot resolve host %S" host))

(* Responses on a link are the service's own records — small — but give
   the framer generous headroom so an unusually wide record (a metrics
   snapshot would be the worst case, and those never ride a link) can
   never be mistaken for corruption. *)
let link_max_line = 8 * 1024 * 1024

let connect_link k (host, port) =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_INET (resolve_host host, port)) with
  | () -> ()
  | exception e ->
    (try Unix.close fd with _ -> ());
    raise e);
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  {
    lk_shard = k;
    lk_fd = Some fd;
    lk_framer = Evloop.Framer.create ~max_line:link_max_line;
    lk_out = Evloop.Outq.create ();
    lk_pending = Queue.create ();
    lk_want_write = false;
  }

let start cfg =
  if Array.length cfg.backends = 0 then
    invalid_arg "Router.start: no backends";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (Unix.ADDR_INET (resolve_host cfg.host, cfg.port));
     Unix.listen lfd 128
   with
  | () -> ()
  | exception e ->
    (try Unix.close lfd with _ -> ());
    raise e);
  Unix.set_nonblock lfd;
  let lport =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let links = Array.mapi connect_link cfg.backends in
  let access =
    match cfg.access_log with None -> None | Some path -> Some (open_out path)
  in
  let t =
    {
      cfg;
      lfd;
      lport;
      ring = Shard_route.make ~shards:(Array.length cfg.backends);
      links;
      started_at = Obs.now ();
      wake = Evloop.Wake.create ();
      draining = Atomic.make false;
      stop_sent = Atomic.make false;
      finished = Atomic.make false;
      conns = Hashtbl.create 64;
      next_conn = 0;
      active = 0;
      accepting = true;
      loop_thread = None;
      c_accepted = 0;
      c_requests = 0;
      c_responses = 0;
      c_shed = 0;
      c_deadlined = 0;
      c_too_long = 0;
      c_dropped = 0;
      access;
    }
  in
  t.loop_thread <- Some (Thread.create (fun () -> event_loop t) ());
  t

let stop t =
  if not (Atomic.exchange t.stop_sent true) then begin
    Atomic.set t.draining true;
    Evloop.Wake.ring t.wake
  end

let wait t =
  while not (Atomic.get t.finished) do
    Thread.delay 0.05
  done;
  match t.loop_thread with Some th -> Thread.join th | None -> ()
