(* Tests for the analysis library: superblock view, dominance, linear
   symbolic values, liveness, the dependence graph and loop
   classification. *)

open Impact_ir
open Impact_analysis
open Helpers
module Liveness = Ref_liveness

let test name f = Alcotest.test_case name `Quick f

(* Build an Sb from instruction/label items. *)
let sb_of items = Sb.make ~head:"H" ~exit_lbl:"X" (Array.of_list items)

(* A loop skeleton for body-level analyses. *)
let loop_of ?(meta = Block.no_meta) body =
  { Block.lid = 1; head = "H"; exit_lbl = "X"; meta; body }

let sb_tests =
  let ctx = Prog.make_ctx () in
  let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
  [
    test "positions and labels" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 9) "L" in
      let sb = sb_of [ Block.Ins i1; Block.Lbl "L"; Block.Ins br ] in
      check_int "length" 3 (Sb.length sb);
      check_bool "insn at 0" true (Sb.insn sb 0 <> None);
      check_bool "label at 1" true (Sb.insn sb 1 = None);
      check_int "positions" 2 (List.length (Sb.insn_positions sb));
      check_bool "internal target" true (Sb.internal_target sb br = Some 1));
    test "back and exit branch detection" (fun () ->
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let exit_br = Build.br ctx Reg.Int Insn.Gt (Operand.Reg r1) (Operand.Int 3) "X" in
      let sb = sb_of [ Block.Ins exit_br; Block.Ins back ] in
      check_bool "back" true (Sb.is_back_branch sb back);
      check_bool "exit" true (Sb.is_exit_branch sb exit_br);
      check_bool "not back" false (Sb.is_back_branch sb exit_br));
    test "def counts" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let sb = sb_of [ Block.Ins i1; Block.Ins i2 ] in
      let counts = Sb.def_counts sb in
      check_int "two defs" 2 (Hashtbl.find counts r1.Reg.id));
  ]

let dom_tests =
  let ctx = Prog.make_ctx () in
  let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
  let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
  [
    test "straight-line code is unconditional" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let sb = sb_of [ Block.Ins i1; Block.Ins back ] in
      let u = Dom.unconditional sb in
      check_bool "pos 0" true u.(0);
      check_bool "pos 1" true u.(1));
    test "guarded region is conditional" (fun () ->
      let g = Build.br ctx Reg.Float Insn.Le (Operand.Reg f1) (Operand.Flt 0.0) "S" in
      let upd = Build.fmov ctx f1 (Operand.Flt 1.0) in
      let inc = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let sb =
        sb_of [ Block.Ins g; Block.Ins upd; Block.Lbl "S"; Block.Ins inc; Block.Ins back ]
      in
      let u = Dom.unconditional sb in
      check_bool "guard uncond" true u.(0);
      check_bool "update cond" false u.(1);
      check_bool "inc uncond" true u.(3);
      check_bool "back uncond" true u.(4));
    test "end_position finds the back-branch" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let i2 = Build.imov ctx r1 (Operand.Int 2) in
      let sb = sb_of [ Block.Ins i1; Block.Ins back; Block.Ins i2 ] in
      check_bool "back at 1" true (Dom.end_position sb = Some 1));
  ]

let linval_tests =
  [
    test "affine chain through add/sub/mul/shl" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let a = Reg.fresh ctx.Prog.rgen Reg.Int in
      let b = Reg.fresh ctx.Prog.rgen Reg.Int in
      let c = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Sub a (Operand.Reg v) (Operand.Int 1));
          Block.Ins (Build.ib ctx Insn.Mul b (Operand.Reg a) (Operand.Int 3));
          Block.Ins (Build.ib ctx Insn.Shl c (Operand.Reg b) (Operand.Int 2));
        ]
      in
      let sb = sb_of items in
      let lv = Linval.analyze sb in
      (* c = ((v-1)*3) << 2 = 12v - 12 *)
      match Linval.result lv 2 with
      | Some lin ->
        check_int "constant" (-12) lin.Linval.c;
        (match Linval.terms lin with
        | [ (Linval.Key.KReg r, 12) ] -> check_bool "key is v" true (Reg.equal r v)
        | _ -> Alcotest.fail "wrong terms")
      | None -> Alcotest.fail "no result");
    test "loads are opaque" (fun () ->
      let ctx = Prog.make_ctx () in
      let d = Reg.fresh ctx.Prog.rgen Reg.Int in
      let e = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.load ctx Reg.Int d (Operand.Lab "A") (Operand.Int 0));
          Block.Ins (Build.ib ctx Insn.Add e (Operand.Reg d) (Operand.Int 4));
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      match Linval.result lv 1 with
      | Some lin -> (
        check_int "const" 4 lin.Linval.c;
        match Linval.terms lin with
        | [ (Linval.Key.KOpq _, 1) ] -> ()
        | _ -> Alcotest.fail "expected opaque key")
      | None -> Alcotest.fail "no result");
    test "iv_step of a counter" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 4));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 99) "H");
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      check_bool "step 4" true (Linval.iv_step lv v = Some 4));
    test "iv_step rejects non-linear updates" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Mul v (Operand.Reg v) (Operand.Int 2));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 99) "H");
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      check_bool "no step" true (Linval.iv_step lv v = None));
    test "address relation same / disjoint / may" (fun () ->
      let ctx = Prog.make_ctx () in
      let w = Reg.fresh ctx.Prog.rgen Reg.Int in
      let d1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let d2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let d3 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let d4 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let items =
        [
          Block.Ins (Build.load ctx Reg.Float d1 (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.load ctx Reg.Float d2 ~disp:4 (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.load ctx Reg.Float d3 (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.load ctx Reg.Float d4 (Operand.Lab "B") (Operand.Reg w));
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      let addr k = Linval.address lv k in
      check_bool "disjoint by disp" true (Linval.relation (addr 0) (addr 1) = Linval.Disjoint);
      check_bool "same" true (Linval.relation (addr 0) (addr 2) = Linval.Same);
      check_bool "different arrays" true (Linval.relation (addr 0) (addr 3) = Linval.Disjoint));
    test "merge makes disagreeing values opaque" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let u = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "M");
          Block.Ins (Build.imov ctx v (Operand.Int 5));
          Block.Lbl "M";
          Block.Ins (Build.ib ctx Insn.Add u (Operand.Reg v) (Operand.Int 0));
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      (* After the join, v is 5 on one path and the entry value on the
         other: the result must not be the constant 5. *)
      match Linval.result lv 3 with
      | Some lin -> check_bool "not constant" false (Linval.is_const lin)
      | None -> Alcotest.fail "no result");
    test "subst rewrites register keys" (fun () ->
      let ctx = Prog.make_ctx () in
      let a = Reg.fresh ctx.Prog.rgen Reg.Int in
      let b = Reg.fresh ctx.Prog.rgen Reg.Int in
      let la = Linval.of_key (Linval.Key.KReg a) in
      let env = Reg.Map.singleton b (Linval.add la (Linval.const 4)) in
      let v = Linval.of_key (Linval.Key.KReg b) in
      let v' = Linval.subst env v in
      check_bool "b -> a + 4" true (Linval.diff v' la = Some 4));
    test "env_of_items composes across an intermediate loop" (fun () ->
      let ctx = Prog.make_ctx () in
      let p = Reg.fresh ctx.Prog.rgen Reg.Int in
      let q = Reg.fresh ctx.Prog.rgen Reg.Int in
      let cnt = Reg.fresh ctx.Prog.rgen Reg.Int in
      (* p and q advance together inside the loop, so their distance (16)
         survives the composition. *)
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Add p (Operand.Reg p) (Operand.Int 4));
          Block.Ins (Build.ib ctx Insn.Add q (Operand.Reg q) (Operand.Int 4));
          Block.Ins (Build.ib ctx Insn.Sub cnt (Operand.Reg cnt) (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Gt (Operand.Reg cnt) (Operand.Int 0) "LP");
        ]
      in
      let l = { Block.lid = 7; head = "LP"; exit_lbl = "XP"; meta = Block.no_meta; body } in
      let p2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let q2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Add q (Operand.Reg p) (Operand.Int 16));
          Block.Loop l;
          Block.Ins (Build.imov ctx p2 (Operand.Reg p));
          Block.Ins (Build.imov ctx q2 (Operand.Reg q));
        ]
      in
      let env = Linval.env_of_items items in
      let vp = Linval.subst env (Linval.of_key (Linval.Key.KReg p2)) in
      let vq = Linval.subst env (Linval.of_key (Linval.Key.KReg q2)) in
      check_bool "distance 16 preserved" true (Linval.diff vq vp = Some 16));
    test "env_of_items keeps guarded definitions imprecise" (fun () ->
      let ctx = Prog.make_ctx () in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let x = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.imov ctx x (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "Z");
          Block.Ins (Build.imov ctx x (Operand.Int 2));
          Block.Lbl "Z";
        ]
      in
      let env = Linval.env_of_items items in
      match Reg.Map.find_opt x env with
      | Some v -> check_bool "not a known constant" false (Linval.is_const v)
      | None -> Alcotest.fail "x should be bound");
  ]

let liveness_tests =
  [
    test "use keeps a def live" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.ib ctx Insn.Add r2 (Operand.Reg r1) (Operand.Int 1) in
      output b "x" r2;
      let p = prog_of b [ Block.Ins i1; Block.Ins i2 ] in
      let live = Liveness.of_prog p in
      check_bool "r1 live out of def" true (Reg.Set.mem r1 live.Liveness.live_out.(0));
      check_bool "r2 live at exit" true (Reg.Set.mem r2 live.Liveness.live_out.(1)));
    test "dead def is not live" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.imov ctx r1 (Operand.Int 2) in
      output b "x" r1;
      let p = prog_of b [ Block.Ins i1; Block.Ins i2 ] in
      let live = Liveness.of_prog p in
      check_bool "first def dead" false (Reg.Set.mem r1 live.Liveness.live_out.(0)));
    test "loop-carried register is live at the head" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let init = Build.imov ctx r1 (Operand.Int 0) in
      let inc = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 9) "L" in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins init;
            Block.Loop (loop_of [ Block.Ins inc; Block.Ins back ]);
          ]
      in
      (* Loop head label is "H" from loop_of *)
      let p = { p with Prog.entry = [ Block.Ins init;
        Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta;
                     body = [ Block.Ins inc; Block.Ins back ] } ] } in
      let live = Liveness.of_prog p in
      check_bool "r1 live at L" true (Reg.Set.mem r1 (Liveness.live_at_label live "L")));
  ]

(* The dense numbering: a table indexed by [Reg.hash], scanned upwards. *)
let dense_numbering_tests =
  [
    test "dense registers ascend in Reg.compare order on the corpus" (fun () ->
      List.iter
        (fun (w : Impact_workloads.Suite.t) ->
          List.iter
            (fun p ->
              let d = Liveness.Dense.of_prog p in
              let regs = d.Liveness.Dense.regs in
              Array.iteri
                (fun k r ->
                  if k > 0 && Reg.compare regs.(k - 1) r >= 0 then
                    Alcotest.failf "%s: %s numbered after %s" w.Impact_workloads.Suite.name
                      (Reg.to_string r) (Reg.to_string regs.(k - 1));
                  if Liveness.Dense.index_opt d r <> Some k then
                    Alcotest.failf "%s: %s does not map back to %d"
                      w.Impact_workloads.Suite.name (Reg.to_string r) k)
                regs;
              (* Every mentioned register is numbered. *)
              Block.iter_insns
                (fun i ->
                  List.iter
                    (fun r ->
                      if Liveness.Dense.index_opt d r = None then
                        Alcotest.failf "%s: %s unnumbered" w.Impact_workloads.Suite.name
                          (Reg.to_string r))
                    (Insn.defs i @ Insn.uses i))
                p.Prog.entry)
            (Impact_core.Compile.transform_all_with Impact_core.Opts.default
               Impact_core.Level.all (lower w.Impact_workloads.Suite.ast)))
        Impact_workloads.Suite.all);
    test "unmentioned registers are dead and unnumbered, in and beyond the table" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let gap = reg b Reg.Int in
      let r3 = reg b Reg.Int in
      let ctx = b.ctx in
      let init = Build.imov ctx r1 (Operand.Int 0) in
      let inc = Build.ib ctx Insn.Add r3 (Operand.Reg r1) (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r3) (Operand.Int 9) "L" in
      output b "x" r3;
      let p =
        prog_of b
          [
            Block.Ins init;
            Block.Loop
              { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta;
                body = [ Block.Ins inc; Block.Ins back ] };
          ]
      in
      let d = Liveness.Dense.of_prog p in
      let live = Liveness.Dense.live_at_target d back in
      check_bool "r1 live at L" true (live r1);
      let size = Array.length d.Liveness.Dense.index_tbl in
      let unmentioned =
        [
          ("gap below the largest hash", gap);
          ("other class of a mentioned id", { r1 with Reg.cls = Reg.Float });
          ("hash at the table size", Reg.of_hash size);
          ("hash far beyond the table", { Reg.id = 1_000_000; cls = Reg.Float });
        ]
      in
      List.iter
        (fun (what, r) ->
          check_bool (what ^ ": not numbered") true (Liveness.Dense.index_opt d r = None);
          check_bool (what ^ ": dead at L") false (live r))
        unmentioned;
      check_int "r1 and r3 numbered" 2 (Liveness.Dense.nregs d));
  ]

let ddg_tests =
  let edge_exists ddg a b =
    List.exists (fun (d, _) -> d = b) ddg.Ddg.succs.(a)
  in
  [
    test "flow edge carries producer latency" (fun () ->
      let ctx = Prog.make_ctx () in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let f2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0) in
      let add = Build.fb ctx Insn.Fadd f2 (Operand.Reg f1) (Operand.Flt 1.0) in
      let ddg = Ddg.build (sb_of [ Block.Ins ld; Block.Ins add ]) in
      (match ddg.Ddg.succs.(0) with
      | [ (1, 2) ] -> ()
      | _ -> Alcotest.fail "expected flow edge with load latency 2");
      check_int "critical path" 5 (Array.fold_left max 0 (Ddg.heights ddg)));
    test "anti edge orders use before redefinition" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let r2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let use = Build.ib ctx Insn.Add r2 (Operand.Reg r1) (Operand.Int 1) in
      let redef = Build.imov ctx r1 (Operand.Int 9) in
      let ddg = Ddg.build (sb_of [ Block.Ins use; Block.Ins redef ]) in
      check_bool "anti edge" true (edge_exists ddg 0 1));
    test "memory edges respect array disjointness" (fun () ->
      let ctx = Prog.make_ctx () in
      let w = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg w) (Operand.Flt 1.0) in
      let ld_b = Build.load ctx Reg.Float f1 (Operand.Lab "B") (Operand.Reg w) in
      let ddg = Ddg.build (sb_of [ Block.Ins st; Block.Ins ld_b ]) in
      check_bool "no edge to other array" false (edge_exists ddg 0 1);
      let f2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let ld_a = Build.load ctx Reg.Float f2 (Operand.Lab "A") (Operand.Reg w) in
      let ddg2 = Ddg.build (sb_of [ Block.Ins st; Block.Ins ld_a ]) in
      check_bool "edge on same address" true (edge_exists ddg2 0 1));
    test "store ordered after branch; dead-dest load may speculate" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 0) "X" in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 1.0) in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "B") (Operand.Int 0) in
      let live_at_target _ = Some (fun _ -> false) in
      let ddg =
        Ddg.build ~live_at_target (sb_of [ Block.Ins br; Block.Ins st; Block.Ins ld ])
      in
      let edge a b = List.exists (fun (d, _) -> d = b) ddg.Ddg.succs.(a) in
      check_bool "branch -> store" true (edge 0 1);
      check_bool "branch -/-> load (dead at target)" false (edge 0 2));
    test "live-dest instruction may not speculate" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 0) "X" in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "B") (Operand.Int 0) in
      let live_at_target _ = Some (Reg.equal f1) in
      let ddg = Ddg.build ~live_at_target (sb_of [ Block.Ins br; Block.Ins ld ]) in
      check_bool "branch -> load" true
        (List.exists (fun (d, _) -> d = 1) ddg.Ddg.succs.(0)));
    test "leftover labels are barriers" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let r2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.imov ctx r2 (Operand.Int 2) in
      let ddg = Ddg.build (sb_of [ Block.Ins i1; Block.Lbl "J"; Block.Ins i2 ]) in
      check_bool "ordered across label" true
        (List.exists (fun (d, _) -> d = 2) ddg.Ddg.succs.(0)));
    test "preheader facts disambiguate expanded pointers" (fun () ->
      let ctx = Prog.make_ctx () in
      let p1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let p2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg p1) (Operand.Flt 1.0) in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Reg p2) in
      let inc1 = Build.ib ctx Insn.Add p1 (Operand.Reg p1) (Operand.Int 8) in
      let inc2 = Build.ib ctx Insn.Add p2 (Operand.Reg p2) (Operand.Int 8) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg p1) (Operand.Int 99) "H" in
      let body =
        [ Block.Ins st; Block.Ins ld; Block.Ins inc1; Block.Ins inc2; Block.Ins back ]
      in
      (* Without preheader facts: may-alias; with p2 = p1 + 4: disjoint. *)
      let ddg_without = Ddg.build (sb_of body) in
      check_bool "conservative edge" true
        (List.exists (fun (d, _) -> d = 1) ddg_without.Ddg.succs.(0));
      let pre_env =
        Reg.Map.singleton p2
          (Linval.add (Linval.of_key (Linval.Key.KReg p1)) (Linval.const 4))
      in
      let ddg_with = Ddg.build ~pre_env (sb_of body) in
      check_bool "edge removed with facts" false
        (List.exists (fun (d, _) -> d = 1) ddg_with.Ddg.succs.(0)));
  ]

let classify_tests =
  let classify_inner ast =
    let p = Impact_opt.Conv.run (lower ast) in
    match List.filter Block.is_innermost (Block.loops p.Prog.entry) with
    | l :: _ -> Classify.classify l
    | [] -> Alcotest.fail "no loop"
  in
  [
    test "vector add is DOALL" (fun () ->
      check_bool "doall" true (classify_inner (vecadd_ast 16) = Classify.Doall));
    test "dot product is serial" (fun () ->
      check_bool "serial" true (classify_inner (dotprod_ast 16) = Classify.Serial));
    test "search is serial" (fun () ->
      check_bool "serial" true (classify_inner (maxval_ast 16) = Classify.Serial));
    test "memory recurrence is DOACROSS" (fun () ->
      check_bool "doacross" true (classify_inner (recurrence_ast 16) = Classify.Doacross));
    test "in-place update is DOALL" (fun () ->
      let open Impact_fir.Ast in
      let ast =
        {
          decls = [ scalar "j" TInt; array1 "A" TReal 18 (pseudo 7) ];
          stmts =
            [ do_ "j" (i 1) (i 16) [ astore "A" [ v "j" ] (idx "A" [ v "j" ] *: r 2.0) ] ];
          outs = [];
        }
      in
      check_bool "doall" true (classify_inner ast = Classify.Doall));
    test "if/else stores stay DOALL" (fun () ->
      let open Impact_fir.Ast in
      let ast =
        {
          decls =
            [
              scalar "j" TInt;
              array1 "M" TInt 18 (fun k -> float_of_int (k mod 2));
              array1 "A" TReal 18 (pseudo 8);
              array1 "C" TReal 18 (fun _ -> 0.0);
            ];
          stmts =
            [
              do_ "j" (i 1) (i 16)
                [
                  if_ CGt (idx "M" [ v "j" ]) (i 0)
                    [ astore "C" [ v "j" ] (idx "A" [ v "j" ]) ]
                    [ astore "C" [ v "j" ] (r 0.0) ];
                ];
            ];
          outs = [];
        }
      in
      check_bool "doall" true (classify_inner ast = Classify.Doall));
    test "same-location store each iteration is not DOALL" (fun () ->
      let open Impact_fir.Ast in
      let ast =
        {
          decls = [ scalar "j" TInt; array1 "A" TReal 18 (pseudo 9) ];
          stmts =
            [
              do_ "j" (i 1) (i 16)
                [ astore "A" [ i 3 ] (idx "A" [ v "j" ] +: r 1.0) ];
            ];
          outs = [];
        }
      in
      check_bool "not doall" true (classify_inner ast <> Classify.Doall));
  ]

let suite =
  [
    ("analysis.sb", sb_tests);
    ("analysis.dom", dom_tests);
    ("analysis.linval", linval_tests);
    ("analysis.liveness", liveness_tests);
    ("analysis.dense-numbering", dense_numbering_tests);
    ("analysis.ddg", ddg_tests);
    ("analysis.classify", classify_tests);
  ]
