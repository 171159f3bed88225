(* Aggregated test runner. Each [T_*] module exposes a [suite] of
   alcotest groups. *)

let () =
  Alcotest.run "impact"
    (List.concat
       [
         T_ir.suite;
         T_sim.suite;
         T_ooo.suite;
         T_fir.suite;
         T_analysis.suite;
         T_ddg.suite;
         T_opt.suite;
         T_trans.suite;
         T_sched.suite;
         T_pipe.suite;
         T_exact.suite;
         T_regalloc.suite;
         T_workloads.suite;
         T_props.suite;
         T_integration.suite;
         T_parse.suite;
         T_misc.suite;
         T_edge.suite;
         T_exec.suite;
         T_obs.suite;
         T_svc.suite;
         T_net.suite;
       ])
