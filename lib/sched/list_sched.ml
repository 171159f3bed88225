(* Superblock list scheduling: dependence-height priority, issue-width
   and branch-slot resource constraints, speculative upward motion of
   non-excepting instructions past side exits (subject to the
   destination-dead-at-target rule encoded in the dependence graph). *)

open Impact_ir
open Impact_analysis

type result = {
  items : Block.item list;  (* reordered segment *)
  makespan : int;  (* schedule length in cycles *)
  issue_time : (int * int) list;  (* (insn id, cycle), in emission order *)
}

(* The label-free segment view the scheduler builds its graph on. *)
let segment_sb (insns : Insn.t array) : Sb.t =
  Sb.make ~head:"\000head" ~exit_lbl:"\000exit" (Array.map (fun i -> Block.Ins i) insns)

(* List-schedule a label-free instruction segment on its dependence
   graph and the graph's heights. *)
let list_schedule (machine : Machine.t) (succs : (int * int) list array)
    (heights : int array) (insns : Insn.t array) : result =
  let n = Array.length insns in
  let scheduled = Array.make n (-1) in
  let npreds = Array.make n 0 in
  Array.iteri (fun _ l -> List.iter (fun (d, _) -> npreds.(d) <- npreds.(d) + 1) l) succs;
  (* earliest data-ready cycle, updated as preds schedule *)
  let ready_at = Array.make n 0 in
  let remaining = ref n in
  let unscheduled_preds = Array.copy npreds in
  let cycle = ref 0 in
  let order = ref [] in
  while !remaining > 0 do
    let issued = ref 0 in
    let branches = ref 0 in
    let progress = ref true in
    (* Re-collect candidates within the cycle so zero-latency chains
       (order-only edges) can share a cycle. *)
    while !progress && !issued < machine.Machine.issue do
      progress := false;
      let candidates = ref [] in
      for k = 0 to n - 1 do
        if scheduled.(k) < 0 && unscheduled_preds.(k) = 0 && ready_at.(k) <= !cycle then
          candidates := k :: !candidates
      done;
      let candidates =
        List.sort
          (fun a b ->
            match compare heights.(b) heights.(a) with 0 -> compare a b | c -> c)
          !candidates
      in
      List.iter
        (fun k ->
          if !issued < machine.Machine.issue && scheduled.(k) < 0 then begin
            let is_br = Insn.is_branch insns.(k) in
            if (not is_br) || !branches < machine.Machine.branch_slots then begin
              scheduled.(k) <- !cycle;
              order := (k, !cycle) :: !order;
              incr issued;
              if is_br then incr branches;
              decr remaining;
              progress := true;
              List.iter
                (fun (d, lat) ->
                  unscheduled_preds.(d) <- unscheduled_preds.(d) - 1;
                  ready_at.(d) <- max ready_at.(d) (!cycle + lat))
                succs.(k)
            end
          end)
        candidates
    done;
    incr cycle
  done;
  let order = List.rev !order in
  let emission =
    List.sort
      (fun (a, ca) (b, cb) -> match compare ca cb with 0 -> compare a b | c -> c)
      order
  in
  let makespan =
    List.fold_left
      (fun acc (k, c) -> max acc (c + Machine.latency insns.(k).Insn.op))
      0 order
  in
  {
    items = List.map (fun (k, _) -> Block.Ins insns.(k)) emission;
    makespan;
    issue_time = List.map (fun (k, c) -> (insns.(k).Insn.id, c)) emission;
  }

let schedule_graph (machine : Machine.t) (ddg : Ddg.t) (insns : Insn.t array) : result =
  list_schedule machine ddg.Ddg.succs (Ddg.heights ddg) insns

(* ---- Machine-independent preparation, per-machine emission ----

   Everything but the list loop itself reads no machine description:
   liveness, each innermost loop's preheader environment, and each
   segment's dependence graph and heights. [prepare] computes them once
   per program; [emit] then only list-schedules the stored graphs for a
   machine, so a program shared by several machines is analyzed once. *)

(* Only what the list loop reads is kept of a segment's graph. *)
type segment = { insns : Insn.t array; succs : (int * int) list array; heights : int array }

(* A program or loop body with its scheduling analysis: items kept as
   they are, label-free segments to list-schedule, and loops (an
   innermost loop's body is items and segments). *)
type node = Keep of Block.item | Seg of segment | Nest of Block.loop * node list

type plan = { prog : Prog.t; nodes : node list }

let prepare_segment ~live_at_target ~pre_env (insns : Insn.t array) : segment =
  let ddg = Ddg.build ~live_at_target ~pre_env (segment_sb insns) in
  { insns; succs = ddg.Ddg.succs; heights = Ddg.heights ddg }

let schedule_prepared (machine : Machine.t) (s : segment) : result =
  list_schedule machine s.succs s.heights s.insns

let rec emit_nodes (machine : Machine.t) (nodes : node list) : Block.t =
  List.concat_map
    (function
      | Keep it -> [ it ]
      | Seg s -> (schedule_prepared machine s).items
      | Nest (l, body) -> [ Block.Loop { l with Block.body = emit_nodes machine body } ])
    nodes

(* Schedule a label-free instruction segment. *)
let schedule_segment (machine : Machine.t) ~live_at_target
    ?(pre_env = Reg.Map.empty) (insns : Insn.t array) : result =
  schedule_prepared machine (prepare_segment ~live_at_target ~pre_env insns)

(* Split a body into segments at labels and loops. Segments that still
   contain labels are impossible here by construction (splitting is at
   labels). *)
let prepare_body ~live_at_target ~pre_env (body : Block.t) : node list =
  let seg cur acc =
    if cur = [] then acc
    else Seg (prepare_segment ~live_at_target ~pre_env (Array.of_list (List.rev cur))) :: acc
  in
  let rec split acc cur = function
    | [] -> List.rev (seg cur acc)
    | Block.Ins i :: rest -> split acc (i :: cur) rest
    | ((Block.Lbl _ | Block.Loop _) as it) :: rest -> split (Keep it :: seg cur acc) [] rest
  in
  split [] [] body

let schedule_body (machine : Machine.t) ~live_at_target
    ?(pre_env = Reg.Map.empty) (body : Block.t) : Block.t =
  emit_nodes machine (prepare_body ~live_at_target ~pre_env body)

(* The analysis of every innermost loop body of the program; superblock
   formation should have run first. The preheader items feeding each loop are evaluated symbolically so the
   scheduler can disambiguate addresses built from expanded induction
   registers; they are read unscheduled, which leaves the environment
   unchanged (list scheduling only permutes a body within its
   dependences). *)
let prepare (p : Prog.t) : plan =
  let live = Liveness.Dense.of_prog p in
  let live_at_target i = Some (Liveness.Dense.live_at_target live i) in
  let rec go_block (b : Block.t) : node list =
    let rec go seen acc = function
      | [] -> List.rev acc
      | (Block.Loop l as it) :: rest when Block.is_innermost l ->
        let pre_env = Linval.env_of_items (List.rev seen) in
        go (it :: seen) (Nest (l, prepare_body ~live_at_target ~pre_env l.Block.body) :: acc) rest
      | (Block.Loop l as it) :: rest -> go (it :: seen) (Nest (l, go_block l.Block.body) :: acc) rest
      | ((Block.Ins _ | Block.Lbl _) as it) :: rest -> go (it :: seen) (Keep it :: acc) rest
    in
    go [] [] b
  in
  { prog = p; nodes = go_block p.Prog.entry }

(* Schedule every innermost loop body of a prepared program for one
   machine. *)
let emit (machine : Machine.t) (plan : plan) : Prog.t =
  Prog.with_entry plan.prog (emit_nodes machine plan.nodes)

let run (machine : Machine.t) (p : Prog.t) : Prog.t = emit machine (prepare p)
