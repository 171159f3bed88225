(* Reference list-scheduling traversal, kept as a test oracle: the
   per-machine [List_sched.run] as it was before scheduling split into a
   machine-independent [prepare] and a per-machine [emit]. It rebuilds
   liveness and every segment's dependence graph for each machine, and
   reads each innermost loop's preheader environment from the already
   scheduled preceding items. [on_loop] sees each innermost loop with
   that environment before the loop is scheduled. *)

open Impact_ir
open Impact_analysis
open Impact_sched

let schedule_segment (machine : Machine.t) ~live_at_target
    ?(pre_env = Reg.Map.empty) (insns : Insn.t array) : List_sched.result =
  List_sched.schedule_graph machine
    (Ddg.build ~live_at_target ~pre_env (List_sched.segment_sb insns))
    insns

let schedule_body (machine : Machine.t) ~live_at_target
    ?(pre_env = Reg.Map.empty) (body : Block.t) : Block.t =
  let rec split acc cur = function
    | [] -> List.rev (if cur = [] then acc else `Run (List.rev cur) :: acc)
    | Block.Ins i :: rest -> split acc (i :: cur) rest
    | (Block.Lbl _ as it) :: rest ->
      let acc = if cur = [] then `Item it :: acc else `Item it :: `Run (List.rev cur) :: acc in
      split acc [] rest
    | (Block.Loop _ as it) :: rest ->
      let acc = if cur = [] then `Item it :: acc else `Item it :: `Run (List.rev cur) :: acc in
      split acc [] rest
  in
  List.concat_map
    (function
      | `Item it -> [ it ]
      | `Run insns ->
        (schedule_segment machine ~live_at_target ~pre_env (Array.of_list insns)).items)
    (split [] [] body)

let run ?(on_loop = fun ~pre_env:_ (_ : Block.loop) -> ()) (machine : Machine.t)
    (p : Prog.t) : Prog.t =
  let live = Liveness.Dense.of_prog p in
  let live_at_target i = Some (Liveness.Dense.live_at_target live i) in
  let rec go_block (b : Block.t) : Block.t =
    let rec go acc = function
      | [] -> List.rev acc
      | Block.Loop l :: rest when Block.is_innermost l ->
        let pre_env = Linval.env_of_items (List.rev acc) in
        on_loop ~pre_env l;
        let l =
          { l with Block.body = schedule_body machine ~live_at_target ~pre_env l.Block.body }
        in
        go (Block.Loop l :: acc) rest
      | Block.Loop l :: rest ->
        go (Block.Loop { l with Block.body = go_block l.Block.body } :: acc) rest
      | ((Block.Ins _ | Block.Lbl _) as item) :: rest -> go (item :: acc) rest
    in
    go [] b
  in
  Prog.with_entry p (go_block p.Prog.entry)
