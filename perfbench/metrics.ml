(* The metric registry. BENCHMARK.json lists the same names and units;
   the benchmark's tests keep the two in step. *)

(* Every workload reports every end-to-end metric; README.md gives each
   one's definition per workload. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("rps", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("server_cpu_us", "us");
    ("peak_rss_mb", "MB");
    ("gen_cycles", "cycles");
    ("decided_frac", "ratio");
  ]

(* Layer metrics of the traced run; a layer a workload does not
   exercise reads 0. *)
let per_layer =
  [
    ("fir.lower_s", "s");
    ("core.level_s", "s");
    ("core.level_calls", "count");
    ("core.level_alloc_mw", "Mw");
    ("core.ir_insns", "count");
    ("core.base_s", "s");
    ("core.base_calls", "count");
    ("opt.conv_s", "s");
    ("opt.conv_calls", "count");
    ("opt.dce_s", "s");
    ("opt.cse_s", "s");
    ("opt.cleanup_s", "s");
    ("sched.superblock_s", "s");
    ("sched.list_s", "s");
    ("sched.list_calls", "count");
    ("sched.list_alloc_mw", "Mw");
    ("sched.code_insns", "count");
    ("pipe.run_s", "s");
    ("pipe.pipelined", "count");
    ("pipe.skipped", "count");
    ("pipe.problems_s", "s");
    ("regalloc.measure_s", "s");
    ("regalloc.alloc_mw", "Mw");
    ("regalloc.edges", "count");
    ("sim.run_s", "s");
    ("sim.dyn_insns", "count");
    ("sim.alloc_mw", "Mw");
    ("ooo.run_s", "s");
    ("ooo.dyn_insns", "count");
    ("exact.certify_s", "s");
    ("exact.nodes", "count");
    ("exact.node_us", "us");
    ("exact.budget_loops", "count");
    ("svc.answer_us.p50", "us");
    ("svc.digest_us.p50", "us");
    ("svc.store.lookup_us.p50", "us");
    ("svc.store.add_us.p50", "us");
    ("svc.eval_ms.p50", "ms");
    ("svc.eval_ms.p99", "ms");
    ("svc.cache.hit_ratio", "ratio");
    ("svc.cache.mem_hits", "count");
    ("svc.cache.disk_hits", "count");
    ("svc.cache.misses", "count");
    ("svc.cache.stores", "count");
    ("exec.queue_ms.p50", "ms");
    ("exec.queue_ms.p99", "ms");
    ("exec.peak_queue", "count");
    ("exec.rejected", "count");
    ("net.write_ms.p50", "ms");
    ("net.write_ms.p99", "ms");
    ("net.wire_ms.p50", "ms");
    ("net.wire_ms.p99", "ms");
    ("gc.alloc_mw", "Mw");
    ("gc.major_collections", "count");
    ("trace.overhead_s", "s");
  ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s
