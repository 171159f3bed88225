(* Reference dependence-graph construction, kept as a test oracle: the
   original [Ddg.build], which relates every pair of memory operations
   with [Linval.relation] and a freshly computed preheader distance,
   keeps register state in hash tables keyed by register id, tests
   branch-target liveness on [Reg.Set]s and deduplicates edges through a
   table keyed by (source, destination). The shipped [Ddg.build] must
   produce the same [edges] list, element for element and in order, the
   same [succs]/[preds] sets and so the same heights (see t_analysis's
   differential test). *)

open Impact_ir
open Impact_analysis
open Ddg


(* Conservative default: every destination is considered live at every
   branch target, i.e. no speculation. *)
let no_speculation : Insn.t -> Reg.Set.t option = fun _ -> None

let build ?(live_at_target = no_speculation) ?(pre_env = Reg.Map.empty) (sb : Sb.t) : t =
  let n = Sb.length sb in
  let edges = ref [] in
  let add esrc edst kind lat =
    if esrc <> edst then edges := { esrc; edst; kind; lat } :: !edges
  in
  let lv = Linval.analyze sb in
  let last_def : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let uses_since : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  (* (position, instruction, live set at its target or None) *)
  let branches : (int * Insn.t * Reg.Set.t option) list ref = ref [] in
  let stores_since_branch : int list ref = ref [] in
  (* (position, destination) of earlier register-writing instructions:
     a later branch pins every one whose destination is live at its
     target (on the taken path the write must already have happened). *)
  let defs_so_far : (int * Reg.t) list ref = ref [] in
  let mem_ops : (int * bool * Linval.lin option * Operand.t) list ref = ref [] in
  let insn_positions = Sb.insn_positions sb in
  let last_insn_pos = match List.rev insn_positions with [] -> -1 | p :: _ -> p in
  let syntactic_disjoint b1 b2 =
    match b1, b2 with
    | Operand.Lab a, Operand.Lab b -> a <> b
    | _ -> false
  in
  (* Fall back to preheader facts when body-local symbolic values cannot
     relate two addresses: if their difference is invariant across
     iterations and the preheader makes it a constant, that constant
     decides aliasing for every iteration. *)
  let preheader_distance a1 a2 =
    match a1, a2 with
    | Some x, Some y ->
      let d = Linval.sub x y in
      if Linval.lin_step lv d <> Some 0 then None
      else
        let d' = Linval.subst pre_env d in
        if Linval.is_const d' then Some d'.Linval.c else None
    | _ -> None
  in
  let may_alias (a1 : Linval.lin option) (b1 : Operand.t) a2 b2 =
    match Linval.relation a1 a2 with
    | Linval.Disjoint -> false
    | Linval.Same -> true
    | Linval.May -> (
      match preheader_distance a1 a2 with
      | Some 0 -> true
      | Some _ -> false
      | None -> not (syntactic_disjoint b1 b2))
  in
  Array.iteri
    (fun p item ->
      match item with
      | Block.Loop _ -> invalid_arg "Ddg.build: nested loop"
      | Block.Lbl _ -> ()
      | Block.Ins i ->
        let lat_of = Machine.latency in
        (* Register flow dependences: uses before defs. *)
        List.iter
          (fun (r : Reg.t) ->
            (match Hashtbl.find_opt last_def r.Reg.id with
            | Some d -> (
              match Sb.insn sb d with
              | Some di -> add d p Flow (lat_of di.Insn.op)
              | None -> ())
            | None -> ());
            let us = Option.value ~default:[] (Hashtbl.find_opt uses_since r.Reg.id) in
            Hashtbl.replace uses_since r.Reg.id (p :: us))
          (Insn.uses i);
        List.iter
          (fun (r : Reg.t) ->
            List.iter
              (fun u -> add u p Anti 0)
              (Option.value ~default:[] (Hashtbl.find_opt uses_since r.Reg.id));
            (match Hashtbl.find_opt last_def r.Reg.id with
            | Some d -> add d p Output 0
            | None -> ());
            Hashtbl.replace last_def r.Reg.id p;
            Hashtbl.replace uses_since r.Reg.id [])
          (Insn.defs i);
        (* Memory dependences. *)
        if Insn.is_mem i then begin
          let addr = Linval.address lv p in
          let base = i.Insn.srcs.(0) in
          let st = Insn.is_store i in
          List.iter
            (fun (q, qst, qaddr, qbase) ->
              if (st || qst) && may_alias qaddr qbase addr base then
                add q p Mem (if qst then 1 else 0))
            !mem_ops;
          mem_ops := (p, st, addr, base) :: !mem_ops
        end;
        (* Control dependences. *)
        if Insn.is_branch i then begin
          (match !branches with (b, _, _) :: _ -> add b p Ctrl 0 | [] -> ());
          List.iter (fun s -> add s p Ctrl 0) !stores_since_branch;
          stores_since_branch := [];
          let live = live_at_target i in
          (* Writes whose results the taken path needs may not sink below
             this branch. *)
          List.iter
            (fun (q, d) ->
              match live with
              | None -> add q p Ctrl 0
              | Some set -> if Reg.Set.mem d set then add q p Ctrl 0)
            !defs_so_far;
          branches := (p, i, live) :: !branches
        end
        else if Insn.is_store i then begin
          (match !branches with (b, _, _) :: _ -> add b p Ctrl 0 | [] -> ());
          stores_since_branch := p :: !stores_since_branch
        end
        else begin
          (* Speculatable instruction: may not hoist above a branch whose
             off-path target needs its destination. *)
          match i.Insn.dst with
          | None -> ()
          | Some d ->
            List.iter
              (fun (b, _, live) ->
                match live with
                | None -> add b p Ctrl 0
                | Some set -> if Reg.Set.mem d set then add b p Ctrl 0)
              !branches;
            defs_so_far := (p, d) :: !defs_so_far
        end)
    sb.Sb.items;
  (* Nothing may sink past a final control transfer. *)
  (match Sb.insn sb last_insn_pos with
  | Some i when Insn.is_branch i ->
    List.iter (fun p -> if p <> last_insn_pos then add p last_insn_pos Ctrl 0) insn_positions
  | Some _ | None -> ());
  (* Leftover internal labels are full barriers. *)
  Array.iteri
    (fun p item ->
      match item with
      | Block.Lbl _ ->
        let rep =
          let rec next k = if k >= n then None
            else match Sb.insn sb k with Some _ -> Some k | None -> next (k + 1)
          in
          next (p + 1)
        in
        (match rep with
        | None -> ()
        | Some r ->
          List.iter
            (fun q -> if q < p then add q r Ctrl 0 else if q > r then add r q Ctrl 0)
            insn_positions)
      | Block.Ins _ | Block.Loop _ -> ())
    sb.Sb.items;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  (* Deduplicate keeping the max latency per (src, dst). *)
  let best : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let k = (e.esrc, e.edst) in
      match Hashtbl.find_opt best k with
      | Some l when l >= e.lat -> ()
      | _ -> Hashtbl.replace best k e.lat)
    !edges;
  Hashtbl.iter
    (fun (s, d) lat ->
      succs.(s) <- (d, lat) :: succs.(s);
      preds.(d) <- (s, lat) :: preds.(d))
    best;
  { sb; nodes = insn_positions; edges = !edges; succs; preds }
