(* Differential tests of the dependence graph: the shipped [Ddg.build]
   (per-address facts, dense register indices, bitset branch-target
   liveness) against the reference construction in [Ref_ddg], on every
   segment the schedulers build a graph for across the 40 kernels x
   Conv..Lev4, in both call forms: list scheduling with speculation
   (branch-target liveness) and Pipe's preheader-only build. *)

open Impact_ir
open Impact_analysis
open Impact_sched
open Helpers

let test name f = Alcotest.test_case name `Quick f

let machines = [ Machine.issue_2; Machine.issue_4; Machine.issue_8 ]

let sorted l = List.sort compare l

(* Equal edge lists (order included), equal successor and predecessor
   sets, equal heights. *)
let same_graph name (got : Ddg.t) (want : Ddg.t) =
  if got.Ddg.edges <> want.Ddg.edges then
    Alcotest.failf "%s: edge lists differ (%d vs %d edges)" name
      (List.length got.Ddg.edges) (List.length want.Ddg.edges);
  Array.iteri
    (fun k s ->
      if sorted s <> sorted want.Ddg.succs.(k) then
        Alcotest.failf "%s: successors of %d differ" name k;
      if sorted got.Ddg.preds.(k) <> sorted want.Ddg.preds.(k) then
        Alcotest.failf "%s: predecessors of %d differ" name k)
    got.Ddg.succs;
  if Ddg.heights got <> Ddg.heights want then Alcotest.failf "%s: heights differ" name

(* Maximal runs of instructions between labels and loops: the segments
   [List_sched.schedule_body] schedules. *)
let runs (body : Block.t) : Insn.t array list =
  let flush cur acc = if cur = [] then acc else Array.of_list (List.rev cur) :: acc in
  let rec go acc cur = function
    | [] -> List.rev (flush cur acc)
    | Block.Ins i :: rest -> go acc (i :: cur) rest
    | (Block.Lbl _ | Block.Loop _) :: rest -> go (flush cur acc) [] rest
  in
  go [] [] body

(* Replay the list scheduler's traversal ([Ref_list_sched.run]), calling
   [on_loop] with each innermost loop and its preheader environment
   before the loop is scheduled (a scheduled loop is part of a later
   loop's preheader). *)
let replay_list_sched machine (p : Prog.t) on_loop =
  ignore (Ref_list_sched.run ~on_loop machine p)

(* The branch-free body Pipe extracts from a loop whose only branch is
   its closing back-branch. *)
let pipe_body (l : Block.loop) : Insn.t array option =
  match List.rev (Block.body_insns l) with
  | last :: rev_rest
    when Insn.is_cond_branch last && last.Insn.target = Some l.Block.head
         && not (List.exists Insn.is_branch rev_rest) ->
    Some (Array.of_list (List.rev rev_rest))
  | _ -> None

let transformed =
  lazy
    (List.concat_map
       (fun (w : Impact_workloads.Suite.t) ->
         List.map
           (fun level ->
             ( Printf.sprintf "%s/%s" w.Impact_workloads.Suite.name
                 (Impact_core.Level.to_string level),
               Impact_core.Compile.transform_with Impact_core.Opts.default level
                 (lower w.Impact_workloads.Suite.ast) ))
           Impact_core.Level.all)
       Impact_workloads.Suite.all)

(* List scheduling: every label-delimited segment and every whole body
   (Pipe's list-schedule bound), with branch-target liveness and the
   preheader environment; the schedules built on the two graphs must
   agree on every machine. *)
let test_list_form () =
  let segments = ref 0 in
  List.iter
    (fun (name, p) ->
      let dense = Liveness.Dense.of_prog p in
      let reference = Ref_liveness.of_prog p in
      let live_dense i = Some (Liveness.Dense.live_at_target dense i) in
      let live_ref i = Some (Ref_liveness.live_at_target reference i) in
      List.iter
        (fun machine ->
          replay_list_sched machine p (fun ~pre_env l ->
            List.iter
              (fun insns ->
                incr segments;
                let sb = List_sched.segment_sb insns in
                let got = Ddg.build ~live_at_target:live_dense ~pre_env sb in
                let want = Ref_ddg.build ~live_at_target:live_ref ~pre_env sb in
                let where =
                  Printf.sprintf "%s/%s loop %d" name machine.Machine.name l.Block.lid
                in
                same_graph where got want;
                let s_got = List_sched.schedule_graph machine got insns in
                let s_want = List_sched.schedule_graph machine want insns in
                check_int (where ^ ": makespan") s_want.List_sched.makespan
                  s_got.List_sched.makespan;
                if s_got.List_sched.issue_time <> s_want.List_sched.issue_time then
                  Alcotest.failf "%s: schedules differ" where)
              (Array.of_list (Block.body_insns l) :: runs l.Block.body)))
        machines)
    (Lazy.force transformed);
  check_bool "segments compared" true (!segments > 1000)

(* Pipe: the preheader-only build on every whole body and every
   extracted branch-free body, plus the carried edges and recurrence
   circuits derived from it. *)
let test_pipe_form () =
  let bodies = ref 0 in
  List.iter
    (fun (name, p) ->
      replay_list_sched Machine.issue_4 p (fun ~pre_env l ->
        let where = Printf.sprintf "%s loop %d" name l.Block.lid in
        let whole = Array.of_list (Block.body_insns l) in
        let sb = List_sched.segment_sb whole in
        same_graph (where ^ " whole") (Ddg.build ~pre_env sb) (Ref_ddg.build ~pre_env sb);
        match pipe_body l with
        | None -> ()
        | Some a ->
          incr bodies;
          let sb = List_sched.segment_sb a in
          let got = Ddg.build ~pre_env sb and want = Ref_ddg.build ~pre_env sb in
          same_graph (where ^ " body") got want;
          let carried = Ddg.carried ~pre_env got in
          if carried <> Ddg.carried ~pre_env want then
            Alcotest.failf "%s: carried edges differ" where;
          if Ddg.cycles got carried <> Ddg.cycles want carried then
            Alcotest.failf "%s: recurrence circuits differ" where))
    (Lazy.force transformed);
  check_bool "pipe bodies compared" true (!bodies > 100)

(* Dense branch-target queries agree with the [Reg.Set] view for every
   branch and every register of every transformed program. *)
let test_branch_liveness () =
  List.iter
    (fun (name, p) ->
      let dense = Liveness.Dense.of_prog p in
      let reference = Ref_liveness.of_prog p in
      let regs =
        List.concat_map (fun i -> Insn.defs i @ Insn.uses i) (Block.insns p.Prog.entry)
      in
      List.iter
        (fun (i : Insn.t) ->
          if Insn.is_branch i then begin
            let q = Liveness.Dense.live_at_target dense i in
            let set = Ref_liveness.live_at_target reference i in
            List.iter
              (fun r ->
                if q r <> Reg.Set.mem r set then
                  Alcotest.failf "%s: %s at %s" name (Reg.to_string r) (Insn.to_string i))
              regs
          end)
        (Block.insns p.Prog.entry))
    (Lazy.force transformed)

(* Both addresses carry the same opaque term (a base loaded inside the
   body), so their difference is formed exactly: p1 - p2 steps by 0 and
   the preheader makes it -4, hence never equal. *)
let test_cancelling_term () =
  let ctx = Prog.make_ctx () in
  let fresh cls = Reg.fresh ctx.Prog.rgen cls in
  let t = fresh Reg.Int and p1 = fresh Reg.Int and p2 = fresh Reg.Int in
  let a1 = fresh Reg.Int and a2 = fresh Reg.Int and f1 = fresh Reg.Float in
  let body =
    [
      Build.load ctx Reg.Int t (Operand.Lab "G") (Operand.Int 0);
      Build.ib ctx Insn.Add a1 (Operand.Reg t) (Operand.Reg p1);
      Build.ib ctx Insn.Add a2 (Operand.Reg t) (Operand.Reg p2);
      Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg a1) (Operand.Flt 1.0);
      Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Reg a2);
      Build.ib ctx Insn.Add p1 (Operand.Reg p1) (Operand.Int 8);
      Build.ib ctx Insn.Add p2 (Operand.Reg p2) (Operand.Int 8);
      Build.br ctx Reg.Int Insn.Le (Operand.Reg p1) (Operand.Int 99) "H";
    ]
  in
  let sb = Sb.make ~head:"H" ~exit_lbl:"X" (Array.of_list (List.map (fun i -> Block.Ins i) body)) in
  let mem_edge (d : Ddg.t) =
    List.exists (fun e -> e.Ddg.esrc = 3 && e.Ddg.edst = 4 && e.Ddg.kind = Ddg.Mem) d.Ddg.edges
  in
  let without = Ddg.build sb in
  same_graph "no preheader facts" without (Ref_ddg.build sb);
  check_bool "may alias without preheader facts" true (mem_edge without);
  let pre_env =
    Reg.Map.singleton p2 (Linval.add (Linval.of_key (Linval.Key.KReg p1)) (Linval.const 4))
  in
  let with_facts = Ddg.build ~pre_env sb in
  same_graph "preheader facts" with_facts (Ref_ddg.build ~pre_env sb);
  check_bool "disjoint with preheader facts" false (mem_edge with_facts)

let suite =
  [
    ( "analysis.ddg-oracle",
      [
        test "opaque term in both addresses cancels exactly" test_cancelling_term;
        test "branch-target liveness: dense == Reg.Set view" test_branch_liveness;
        test "list form == reference on 40 kernels x levels x issue 2/4/8" test_list_form;
        test "pipe form == reference on 40 kernels x levels" test_pipe_form;
      ] );
  ]
