(* Closed-loop pipelined TCP client for `impactc serve --listen`: each
   connection keeps a fixed window of requests in flight and sends the
   next one only when a response comes back. One thread multiplexes
   every connection with select. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes read but not yet split into lines *)
  mutable sent : string list;  (* request lines, newest first *)
  mutable n_sent : int;
  in_flight : float Queue.t;  (* send times of unanswered requests *)
  mutable answers : string list;  (* response lines, newest first *)
  mutable lat_ms : float list;
  mutable n_recv : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    fd;
    buf = Buffer.create 65536;
    sent = [];
    n_sent = 0;
    in_flight = Queue.create ();
    answers = [];
    lat_ms = [];
    n_recv = 0;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let send c line =
  let t = Unix.gettimeofday () in
  write_all c.fd (line ^ "\n");
  c.sent <- line :: c.sent;
  Queue.push t c.in_flight;
  c.n_sent <- c.n_sent + 1

(* Split complete lines off the read buffer. *)
let take_lines c =
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s (last + 1) (String.length s - last - 1);
    String.split_on_char '\n' (String.sub s 0 last)

type result = {
  requests : string array;  (* per connection, in send order *)
  answers : string array;
  lat_ms : float array;  (* client-observed latency per request *)
}

let chunk = Bytes.create 65536

(* Drive [conns] until [next] runs dry or [deadline] passes, then wait
   for every in-flight response. [next k] gives connection [k]'s next
   request line. Returns each connection's requests, answers and
   latencies, and two (time, [probe ()]) samples: at the start and
   after the final answer. [on_count] [(n, f)] runs [f] once, when the
   [n]th answer has arrived. *)
let drive ?(probe = fun () -> 0.0) ?(on_count = (0, ignore)) ~port ~conns ~window
    ~(next : int -> string option) ~deadline () : result array * (float * float) * (float * float) =
  let cs = Array.init conns (fun _ -> connect port) in
  let live = Array.make conns true in
  let inflight k = cs.(k).n_sent - cs.(k).n_recv in
  let refill k =
    while live.(k) && inflight k < window do
      if Unix.gettimeofday () >= deadline then live.(k) <- false
      else match next k with None -> live.(k) <- false | Some line -> send cs.(k) line
    done
  in
  let t_start = Unix.gettimeofday () in
  let first = (t_start, probe ()) in
  Array.iteri (fun k _ -> refill k) cs;
  let busy () = Array.exists (fun c -> c.n_sent > c.n_recv) cs in
  let last_answer = ref t_start in
  let received = ref 0 in
  while busy () do
    let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
    if Unix.gettimeofday () -. !last_answer > 30.0 then failwith "serve client: no answer for 30 s";
    let ready, _, _ = Unix.select fds [] [] 0.1 in
    List.iter
      (fun fd ->
        let k = ref 0 in
        Array.iteri (fun i c -> if c.fd = fd then k := i) cs;
        let c = cs.(!k) in
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "serve client: server closed the connection";
        Buffer.add_subbytes c.buf chunk 0 n;
        let t = Unix.gettimeofday () in
        List.iter
          (fun line ->
            let t_sent = Queue.pop c.in_flight in
            c.answers <- line :: c.answers;
            c.lat_ms <- ((t -. t_sent) *. 1e3) :: c.lat_ms;
            c.n_recv <- c.n_recv + 1;
            incr received;
            if !received = fst on_count then snd on_count ();
            last_answer := t)
          (take_lines c);
        refill !k)
      ready
  done;
  let out =
    Array.map
      (fun c ->
        {
          requests = Array.of_list (List.rev c.sent);
          answers = Array.of_list (List.rev c.answers);
          lat_ms = Array.of_list (List.rev c.lat_ms);
        })
      cs
  in
  Array.iter close cs;
  (out, first, (!last_answer, probe ()))

(* One request on a fresh connection, e.g. the metrics op. *)
let request ~port line =
  let r, _, _ =
    drive ~port ~conns:1 ~window:1
      ~next:(let sent = ref false in fun _ -> if !sent then None else (sent := true; Some line))
      ~deadline:infinity ()
  in
  r.(0).answers.(0)
