(* In-memory span recorder for the traced run. Spans wrap calls into
   each layer's public interface from the benchmark's own code: name,
   start, end, parent, and the words allocated in between. Nothing is
   written until the run ends; with tracing off [span] is a plain call. *)

type span = {
  name : string;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
  w0 : float;  (* words allocated before the call *)
  mutable w1 : float;
}

let enabled = ref false

let spans : span list ref = ref []

let nspans = ref 0

let open_stack : int list ref = ref []

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let span name f =
  if not !enabled then f ()
  else begin
    let id = !nspans in
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let s = { name; parent; t0 = Unix.gettimeofday (); t1 = nan; w0 = words (); w1 = nan } in
    spans := s :: !spans;
    incr nspans;
    open_stack := id :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        s.w1 <- words ();
        s.t1 <- Unix.gettimeofday ();
        open_stack := List.tl !open_stack)
      f
  end

(* Counts recorded at the same boundaries as the spans. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name n =
  if !enabled then
    Hashtbl.replace counts name (n +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let reset () =
  spans := [];
  nspans := 0;
  open_stack := [];
  Hashtbl.reset counts

type total = { calls : int; total_s : float; self_s : float; alloc_w : float }

(* Per-name totals. A span's self time is its duration minus the part
   covered by its direct children (children nest strictly inside their
   parent, so their durations can simply be subtracted). *)
let totals () : (string, total) Hashtbl.t =
  let a = Array.of_list (List.rev !spans) in
  let child = Array.make (Array.length a) 0.0 in
  Array.iter (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)) a;
  let h = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let d = s.t1 -. s.t0 in
      let prev =
        Option.value (Hashtbl.find_opt h s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0; alloc_w = 0.0 }
      in
      Hashtbl.replace h s.name
        {
          calls = prev.calls + 1;
          total_s = prev.total_s +. d;
          self_s = prev.self_s +. (d -. child.(i));
          alloc_w = prev.alloc_w +. (s.w1 -. s.w0);
        })
    a;
  h

let get_count name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)
