(* The host's vCPUs are slowed by other tenants independently of each
   other, in phases of seconds to minutes. A single-threaded batch
   workload therefore runs each pass pinned to one CPU, so that the
   calibration slices between its subjects (calib.ml) run where the
   subjects did, and its passes visit each allowed CPU in turn. *)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"

external set_cpu : int -> bool = "perfbench_set_cpu"

(* Pin pass [k] to the next allowed CPU. *)
let pin_pass k =
  let cpus = allowed_cpus () in
  if Array.length cpus > 1 then ignore (set_cpu cpus.(k mod Array.length cpus))

let unpin () = ignore (set_cpu (-1))

(* CPU seconds of the calling thread, at nanosecond resolution. *)
external thread_cpu : unit -> float = "perfbench_thread_cpu"
