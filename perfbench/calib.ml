(* Host speed, measured beside the workload. The host's vCPUs are
   slowed by other tenants in phases of seconds to minutes, and a slow
   phase slows the guest's own execution: a fixed loop's rate swung by
   a third within a minute, with no steal time. A timing of the
   program, taken alone, moves with the phase it fell in.

   So every timed stretch of a workload is bracketed by calibration
   slices: a fixed amount of work that no change to the repository's
   code can speed up. Most of a slice is loads and stores streaming
   through a 1 MB buffer, which lives in the L2 cache that a vCPU
   shares with its sibling hyperthread, as a compiler's working set
   does; the rest is data-dependent branches. The workload's times are
   reported at the reference speed:

     reported = measured * ref_s / slice

   where [slice] is the median time of the calibration slices around
   the measured stretch and [ref_s] about a slice's time on the
   reference host (a 2-vCPU Xeon in a quiet phase, the slice run
   between subjects of a workload). The mix was chosen from runs on
   that host: a slice made mostly of branches moved half as much as the
   workloads did across phases, and a pointer chase through 4 MB moved
   with the memory system rather than with them. A slice allocates
   nothing on the OCaml heap, so it neither triggers nor pays for the
   program's garbage collection. *)

let stream_bytes = 1 lsl 20

let stream = lazy (Bytes.make stream_bytes '\001')

let stream_passes = 72

let branch_steps = 80_000

let sink = ref 0

let work () =
  let stream = Lazy.force stream in
  let acc = ref !sink in
  for _ = 1 to stream_passes do
    let i = ref 0 in
    while !i < stream_bytes do
      Bytes.unsafe_set stream !i (Char.unsafe_chr (!acc land 0xFF));
      acc := !acc + Char.code (Bytes.unsafe_get stream (!i lxor 4096));
      i := !i + 64
    done
  done;
  let x = ref (!acc lor 1) in
  for _ = 1 to branch_steps do
    (* xorshift; the branch follows the data *)
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    if !x land 3 = 0 then acc := !acc + (!x land 0xFF) else if !x land 5 = 1 then acc := !acc - 1
  done;
  sink := !acc

(* Wall seconds of one slice on the reference host. *)
let ref_s = 0.004

type sample = { wall : float; cpu : float }

(* One calibration slice, timed by the wall clock and by the calling
   thread's CPU clock. *)
let slice () =
  ignore (Lazy.force stream);
  let t0 = Unix.gettimeofday () and c0 = Affinity.thread_cpu () in
  work ();
  let c1 = Affinity.thread_cpu () and t1 = Unix.gettimeofday () in
  { wall = t1 -. t0; cpu = c1 -. c0 }

(* The factor that brings a time measured beside [samples] to the
   reference speed, per clock: ref_s over the samples' median. *)
let factor_wall samples = ref_s /. Perfbench.Stats.median (List.map (fun s -> s.wall) samples)

let factor_cpu samples = ref_s /. Perfbench.Stats.median (List.map (fun s -> s.cpu) samples)

(* A boundary between two timed stretches: both clocks as the first
   ends, a calibration slice, and both clocks as the next begins. *)
type mark = { end_t : float; end_c : float; cal : sample; start_t : float; start_c : float }

let bracket () =
  let end_t = Unix.gettimeofday () and end_c = Affinity.thread_cpu () in
  let cal = slice () in
  let start_c = Affinity.thread_cpu () in
  { end_t; end_c; cal; start_t = Unix.gettimeofday (); start_c }

(* The stretches between consecutive marks, as measured: (wall, CPU,
   the calibration slices near it). A stretch takes the two slices on
   either side of it and the next one out on each side, so that one
   disturbed slice cannot set its scale alone, while every slice taken
   stays within a few subjects of it. *)
let spans marks =
  let cal = Array.of_list (List.map (fun m -> m.cal) marks) in
  let n = Array.length cal in
  let near i = Array.to_list (Array.sub cal (max 0 (i - 1)) (min n (i + 3) - max 0 (i - 1))) in
  let rec go i = function
    | a :: (b :: _ as rest) -> (b.end_t -. a.start_t, b.end_c -. a.start_c, near i) :: go (i + 1) rest
    | _ -> []
  in
  go 0 marks

(* The same stretches at the reference speed. *)
let spans_wall marks = List.map (fun (w, _, cal) -> w *. factor_wall cal) (spans marks)

let spans_cpu marks = List.map (fun (_, c, cal) -> c *. factor_cpu cal) (spans marks)
