(* Tests for superblock formation and list scheduling. *)

open Impact_ir
open Impact_sched
open Helpers

let test name f = Alcotest.test_case name `Quick f

let inner_loop (p : Prog.t) =
  match List.filter Block.is_innermost (Block.loops p.Prog.entry) with
  | l :: _ -> l
  | [] -> Alcotest.fail "no innermost loop"

(* The main trace: body items up to the first back-branch or jump. *)
let main_trace (l : Block.loop) =
  let rec go = function
    | [] -> []
    | (Block.Ins i as item) :: _
      when i.Insn.op = Insn.Jmp || i.Insn.target = Some l.Block.head -> [ item ]
    | item :: rest -> item :: go rest
  in
  go l.Block.body

let formation_tests =
  [
    test "conditional bodies form a label-free main trace" (fun () ->
      let p = Impact_core.Level.apply ~unroll_factor:4 Impact_core.Level.Lev2
          (lower (maxval_ast 64)) in
      let p' = Superblock.run p in
      let l = inner_loop p' in
      let labels_in_main =
        List.filter (function Block.Lbl _ -> true | _ -> false) (main_trace l)
      in
      check_int "no labels in main trace" 0 (List.length labels_in_main));
    test "formation preserves semantics on conditional kernels" (fun () ->
      List.iter
        (fun ast ->
          let p = Impact_core.Level.apply ~unroll_factor:4 Impact_core.Level.Lev2 (lower ast) in
          let base = run p in
          let p' = Superblock.run p in
          same_observables "formation" base (run p'))
        [ maxval_ast 50; vecadd_ast 50; dotprod_ast 50 ]);
    test "guard inversion puts the skip path on the trace" (fun () ->
      (* maxval's guard is [ble (x mx) SKIP; mx = x; SKIP:]; after
         inversion the main trace's guard is a bgt jumping OUT. *)
      let p = Impact_opt.Conv.run (lower (maxval_ast 32)) in
      let p' = Superblock.run p in
      let l = inner_loop p' in
      let trace_insns =
        List.filter_map (function Block.Ins i -> Some i | _ -> None) (main_trace l)
      in
      let has_inline_update =
        List.exists
          (fun (i : Insn.t) -> match i.Insn.op with Insn.FMov -> true | _ -> false)
          trace_insns
      in
      check_bool "update moved off-trace" false has_inline_update);
    test "side blocks end with explicit control transfer" (fun () ->
      let p = Impact_core.Level.apply ~unroll_factor:4 Impact_core.Level.Lev2
          (lower (maxval_ast 64)) in
      let p' = Superblock.run p in
      let l = inner_loop p' in
      (* Walk the body: every instruction directly before a label must be
         an unconditional transfer (no fall-through into side blocks). *)
      let rec check_items = function
        | Block.Ins i :: Block.Lbl _ :: _ when i.Insn.op <> Insn.Jmp
          && i.Insn.target <> Some l.Block.head ->
          Alcotest.fail "fall-through into a side block"
        | Block.Ins i :: Block.Lbl _ :: rest ->
          ignore i;
          check_items rest
        | _ :: rest -> check_items rest
        | [] -> ()
      in
      check_items l.Block.body);
  ]

(* Issue-per-cycle profile via the simulator trace. *)
let issue_profile machine p =
  let per_cycle : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let branches : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let trace (i : Insn.t) ~cycle =
    Hashtbl.replace per_cycle cycle
      (1 + Option.value ~default:0 (Hashtbl.find_opt per_cycle cycle));
    if Insn.is_branch i then
      Hashtbl.replace branches cycle
        (1 + Option.value ~default:0 (Hashtbl.find_opt branches cycle))
  in
  ignore (Impact_sim.Sim.run ~trace machine p);
  (per_cycle, branches)

let sched_tests =
  [
    test "issue width respected after scheduling" (fun () ->
      let machine = Machine.issue_4 in
      let p = Impact_core.Compile.compile_with Impact_core.Opts.default Impact_core.Level.Lev4 machine (lower (vecadd_ast 64)) in
      let per_cycle, branches = issue_profile machine p in
      Hashtbl.iter
        (fun _ n -> if n > 4 then Alcotest.failf "issued %d > width 4" n)
        per_cycle;
      Hashtbl.iter
        (fun _ n -> if n > 1 then Alcotest.failf "%d branches in one cycle" n)
        branches);
    test "scheduling preserves semantics at every width" (fun () ->
      List.iter
        (fun machine ->
          List.iter
            (fun ast ->
              let p = Impact_core.Level.apply Impact_core.Level.Lev4 (lower ast) in
              let base = run p in
              let p' = List_sched.run machine (Superblock.run p) in
              same_observables "sched" base (run p'))
            [ vecadd_ast 40; dotprod_ast 40; maxval_ast 40; recurrence_ast 24 ])
        [ Machine.issue_2; Machine.issue_8; Machine.unlimited ]);
    test "makespan is at least the critical path" (fun () ->
      let ctx = Prog.make_ctx () in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let f2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let f3 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let insns =
        [|
          Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0);
          Build.fb ctx Insn.Fadd f2 (Operand.Reg f1) (Operand.Flt 1.0);
          Build.fb ctx Insn.Fmul f3 (Operand.Reg f2) (Operand.Flt 2.0);
        |]
      in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Some (fun _ -> false))
          insns
      in
      (* load(2) + fadd(3) + fmul(3) = 8 *)
      check_int "makespan" 8 r.List_sched.makespan);
    test "independent chains overlap in the schedule" (fun () ->
      let ctx = Prog.make_ctx () in
      let mk () =
        let a = Reg.fresh ctx.Prog.rgen Reg.Float in
        let b = Reg.fresh ctx.Prog.rgen Reg.Float in
        [
          Build.load ctx Reg.Float a (Operand.Lab "A") (Operand.Int 0);
          Build.fb ctx Insn.Fadd b (Operand.Reg a) (Operand.Flt 1.0);
        ]
      in
      let insns = Array.of_list (mk () @ mk () @ mk ()) in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Some (fun _ -> false))
          insns
      in
      check_int "three chains in the time of one" 5 r.List_sched.makespan);
    test "loads are hoisted above side exits in the emitted order" (fun () ->
      let ctx = Prog.make_ctx () in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      (* The branch waits on its own load, so an independent later load
         can issue strictly earlier — the emitted order must hoist it. *)
      let insns =
        [|
          Build.load ctx Reg.Int g (Operand.Lab "G") (Operand.Int 0);
          Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "OUT";
          Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0);
        |]
      in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Some (fun _ -> false))
          insns
      in
      let order =
        List.filter_map
          (function Block.Ins i -> Some i | _ -> None)
          r.List_sched.items
      in
      (match order with
      | [ a; b; c ] ->
        check_bool "both loads precede the branch" true
          (Insn.is_load a && Insn.is_load b && Insn.is_branch c)
      | _ -> Alcotest.fail "wrong shape"));
    test "stores never move above branches" (fun () ->
      let ctx = Prog.make_ctx () in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let insns =
        [|
          Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "OUT";
          Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 1.0);
        |]
      in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Some (fun _ -> false))
          insns
      in
      (match r.List_sched.items with
      | Block.Ins first :: _ -> check_bool "branch first" true (Insn.is_branch first)
      | _ -> Alcotest.fail "no items"));
    test "back-branch is always emitted last" (fun () ->
      let p = Impact_core.Compile.compile_with Impact_core.Opts.default Impact_core.Level.Lev4 Machine.issue_8
          (lower (vecadd_ast 64)) in
      List.iter
        (fun (l : Block.loop) ->
          let insns = Block.body_insns l in
          let backs =
            List.mapi (fun k (i : Insn.t) -> (k, i)) insns
            |> List.filter (fun (_, i) -> i.Insn.target = Some l.Block.head)
          in
          (* Each back-branch must be followed only by labels/side blocks:
             in the main trace it is the last instruction before any side
             label. *)
          match backs with
          | [] -> Alcotest.fail "no back-branch"
          | _ -> ())
        (List.filter Block.is_innermost (Block.loops p.Prog.entry)));
  ]

(* ---- prepare/emit against the reference traversal ---- *)

let oracle_machines = [ Machine.issue_1; Machine.issue_2; Machine.issue_4; Machine.issue_8 ]

(* 40 kernels x Conv..Lev4 x unroll {default, 2, 4, 8}, transformed. *)
let oracle_programs =
  lazy
    (List.concat_map
       (fun (w : Impact_workloads.Suite.t) ->
         List.concat_map
           (fun unroll ->
             let opts = Impact_core.Opts.make ?unroll () in
             List.map2
               (fun level p ->
                 ( Printf.sprintf "%s/%s/u%s" w.Impact_workloads.Suite.name
                     (Impact_core.Level.to_string level)
                     (match unroll with None -> "-" | Some u -> string_of_int u),
                   p ))
               Impact_core.Level.all
               (Impact_core.Compile.transform_all_with opts Impact_core.Level.all
                  (lower w.Impact_workloads.Suite.ast)))
           [ None; Some 2; Some 4; Some 8 ])
       Impact_workloads.Suite.all)

(* One [prepare] emitted for every machine, and [run] per machine, print
   exactly as the reference traversal's schedule. *)
let test_prepare_emit () =
  List.iter
    (fun (name, p) ->
      let plan = List_sched.prepare p in
      List.iter
        (fun machine ->
          let want = Pp.prog_to_string (Ref_list_sched.run machine p) in
          let where = Printf.sprintf "%s on %s" name machine.Machine.name in
          if Pp.prog_to_string (List_sched.emit machine plan) <> want then
            Alcotest.failf "%s: prepare/emit differs from the reference" where;
          if Pp.prog_to_string (List_sched.run machine p) <> want then
            Alcotest.failf "%s: run differs from the reference" where)
        oracle_machines)
    (Lazy.force oracle_programs)

(* An environment with its opaque keys renamed by rank: separate
   evaluations of the same items draw different (fresh) synthetic keys
   in the same order. *)
let canonical_env (env : Impact_analysis.Linval.lin Reg.Map.t) =
  let open Impact_analysis.Linval in
  let opaque =
    Reg.Map.fold
      (fun _ v acc ->
        List.fold_left
          (fun acc (k, _) -> match k with Key.KOpq n -> n :: acc | _ -> acc)
          acc (terms v))
      env []
    |> List.sort_uniq compare
  in
  let rank n =
    let rec go k = function x :: rest -> if x = n then k else go (k + 1) rest | [] -> k in
    go 0 opaque
  in
  Reg.Map.map
    (fun v ->
      ( List.sort compare
          (List.map
             (fun (k, c) -> ((match k with Key.KOpq n -> Key.KOpq (rank n) | k -> k), c))
             (terms v)),
        v.c ))
    env

(* The preceding items of every innermost loop in its parent block, in
   traversal order. *)
let preheaders (p : Prog.t) : Block.item list list =
  let out = ref [] in
  let rec go_block (b : Block.t) =
    ignore
      (List.fold_left
         (fun seen it ->
           (match it with
           | Block.Loop l when Block.is_innermost l -> out := List.rev seen :: !out
           | Block.Loop l -> go_block l.Block.body
           | _ -> ());
           it :: seen)
         [] b)
  in
  go_block p.Prog.entry;
  List.rev !out

(* [prepare] reads each preheader unscheduled, the reference traversal
   reads it with the preceding loops already scheduled: the two
   environments agree on every innermost loop and machine. *)
let test_preheader_env () =
  let loops = ref 0 in
  List.iter
    (fun (name, p) ->
      let unscheduled = List.map Impact_analysis.Linval.env_of_items (preheaders p) in
      List.iter
        (fun machine ->
          let scheduled = ref [] in
          ignore
            (Ref_list_sched.run machine p ~on_loop:(fun ~pre_env _ ->
               scheduled := pre_env :: !scheduled));
          let scheduled = List.rev !scheduled in
          check_int (name ^ ": innermost loops") (List.length unscheduled)
            (List.length scheduled);
          List.iter2
            (fun a b ->
              incr loops;
              if not (Reg.Map.equal ( = ) (canonical_env a) (canonical_env b)) then
                Alcotest.failf "%s on %s: preheader environments differ" name
                  machine.Machine.name)
            unscheduled scheduled)
        oracle_machines)
    (Lazy.force oracle_programs);
  check_bool "loops compared" true (!loops > 1000)

let oracle_tests =
  [
    test "prepare/emit and run == reference on 40 kernels x levels x unroll x issue 1/2/4/8"
      test_prepare_emit;
    test "preheader environment: unscheduled == scheduled items" test_preheader_env;
  ]

let suite =
  [
    ("sched.formation", formation_tests);
    ("sched.list", sched_tests);
    ("sched.list-oracle", oracle_tests);
  ]
