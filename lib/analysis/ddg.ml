(* Data-dependence graph of a superblock (or any straight-line segment
   with side exits). Nodes are item positions holding instructions.

   Edge kinds:
   - Flow: def -> use, with the producer's latency.
   - Anti / Output: register reuse ordering (latency 0; the in-order
     machine applies same-cycle effects in program order).
   - Mem: load/store ordering from memory disambiguation.
   - Ctrl: branch ordering, store/branch ordering, and speculation
     constraints (an instruction may move above a branch only if it is
     speculatable and its destination is dead at the branch target).

   Any internal label that survives superblock formation is treated as a
   full scheduling barrier (sound fallback). *)

open Impact_ir

type kind = Flow | Anti | Output | Mem | Ctrl

type edge = { esrc : int; edst : int; kind : kind; lat : int }

type t = {
  sb : Sb.t;
  nodes : int list;  (* instruction positions, in program order *)
  edges : edge list;
  succs : (int * int) list array;  (* position -> (succ position, latency) *)
  preds : (int * int) list array;
}

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Mem -> "mem"
  | Ctrl -> "ctrl"

(* Conservative default: every destination is considered live at every
   branch target, i.e. no speculation. *)
let no_speculation : Insn.t -> (Reg.t -> bool) option = fun _ -> None

(* Facts about one memory operation's address, computed once per
   operation so that relating a pair compares integers. Linear values
   are kept normalized (no zero coefficients), so two addresses differ
   by a constant exactly when their coefficient maps are equal; [mcid]
   interns the address's map and [mpcid] the map of its preheader-
   substituted form (both -1 when the address is unknown). *)
type mem_fact = {
  mpos : int;
  mstore : bool;
  mbase : Operand.t;
  maddr : Linval.lin option;
  mcid : int;
  mc : int;
  mlab : string option;  (* [Linval.label_of_addr] *)
  mnonstep : Linval.Key.t list;  (* keys with no per-iteration step *)
  mstep : int;  (* [Linval.lin_step] of the address when [mnonstep = []] *)
  mpcid : int;
  mpc : int;
}

(* Dense ids for coefficient maps, equal ids for equal maps. *)
let interner () : Linval.lin -> int =
  let ids : ((Linval.Key.t * int) list, int) Hashtbl.t = Hashtbl.create 16 in
  fun v ->
    let key = Linval.terms v in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      id

let mem_fact (lv : Linval.t) ~pre_env ~intern p (i : Insn.t) : mem_fact =
  let addr = Linval.address lv p in
  let fact =
    { mpos = p; mstore = Insn.is_store i; mbase = i.Insn.srcs.(0); maddr = addr; mcid = -1;
      mc = 0; mlab = None; mnonstep = []; mstep = 0; mpcid = -1; mpc = 0 }
  in
  match addr with
  | None -> fact
  | Some x ->
    let nonstep, step =
      List.fold_left
        (fun (ks, s) (k, coeff) ->
          match k with
          | Linval.Key.KLab _ -> (ks, s)
          | Linval.Key.KOpq _ | Linval.Key.KTrip _ -> (k :: ks, s)
          | Linval.Key.KReg r -> (
            match Linval.iv_step lv r with
            | Some d -> (ks, s + (coeff * d))
            | None -> (k :: ks, s)))
        ([], 0) (Linval.terms x)
    in
    let px = if Reg.Map.is_empty pre_env then x else Linval.subst pre_env x in
    { fact with mcid = intern x; mc = x.Linval.c; mlab = Linval.label_of_addr x;
                mnonstep = nonstep; mstep = step; mpcid = intern px; mpc = px.Linval.c }

(* Fall back to preheader facts when body-local symbolic values cannot
   relate two addresses: if their difference is invariant across
   iterations and the preheader makes it a constant, that constant
   decides aliasing for every iteration. The difference steps by the
   difference of the steps unless a key without a step occurs in both
   addresses (where it may cancel); only then is it formed exactly.
   Substitution is linear, so the substituted difference is constant
   exactly when the substituted forms have equal coefficients. *)
let preheader_distance lv q m =
  match q.maddr, m.maddr with
  | Some x, Some y ->
    let invariant =
      match q.mnonstep, m.mnonstep with
      | [], [] -> q.mstep = m.mstep
      | qs, ms ->
        let occurs ks (v : Linval.lin) =
          List.exists (fun k -> Linval.KMap.mem k v.Linval.coeffs) ks
        in
        (occurs qs y || occurs ms x) && Linval.lin_step lv (Linval.sub x y) = Some 0
    in
    if invariant && q.mpcid = m.mpcid then Some (q.mpc - m.mpc) else None
  | _ -> None

let syntactic_disjoint b1 b2 =
  match b1, b2 with
  | Operand.Lab a, Operand.Lab b -> a <> b
  | _ -> false

(* Whether the earlier access [q] and the later [m] may touch the same
   location: [Linval.relation] from the facts (equal coefficients are
   [Same] or [Disjoint] by the constants, distinct array labels are
   [Disjoint]), then the preheader distance, then the base operands. *)
let may_alias lv q m =
  if q.mcid >= 0 && q.mcid = m.mcid then q.mc = m.mc
  else if (match q.mlab, m.mlab with Some a, Some b -> a <> b | _ -> false) then false
  else
    match preheader_distance lv q m with
    | Some d -> d = 0
    | None -> not (syntactic_disjoint q.mbase m.mbase)

let build ?(live_at_target = no_speculation) ?(pre_env = Reg.Map.empty) (sb : Sb.t) : t =
  let n = Sb.length sb in
  let edges = ref [] in
  let add esrc edst kind lat =
    if esrc <> edst then edges := { esrc; edst; kind; lat } :: !edges
  in
  let lv = Linval.analyze sb in
  let insn_positions = Sb.insn_positions sb in
  let last_insn_pos = match List.rev insn_positions with [] -> -1 | p :: _ -> p in
  (* Dense register indices for this segment (keyed by register id), the
     uses and definitions of each position in that numbering, and the
     destinations of speculatable instructions, whose liveness at each
     branch target is looked up once per branch. *)
  let reg_index : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let index (r : Reg.t) =
    match Hashtbl.find_opt reg_index r.Reg.id with
    | Some k -> k
    | None ->
      let k = Hashtbl.length reg_index in
      Hashtbl.add reg_index r.Reg.id k;
      k
  in
  let uses_ix = Array.make n [] and defs_ix = Array.make n [] in
  let spec_dsts = ref [] in
  Array.iteri
    (fun p item ->
      match item with
      | Block.Loop _ -> invalid_arg "Ddg.build: nested loop"
      | Block.Lbl _ -> ()
      | Block.Ins i ->
        uses_ix.(p) <- List.map index (Insn.uses i);
        defs_ix.(p) <- List.map index (Insn.defs i);
        if not (Insn.is_branch i || Insn.is_store i) then
          match i.Insn.dst with
          | Some d -> spec_dsts := (index d, d) :: !spec_dsts
          | None -> ())
    sb.Sb.items;
  let nregs = Hashtbl.length reg_index in
  let last_def = Array.make nregs (-1) in
  let uses_since = Array.make nregs [] in
  (* Live destinations at a branch's target as a bitset over the dense
     indices, or [None] when everything counts as live. *)
  let live_bits (i : Insn.t) =
    match live_at_target i with
    | None -> None
    | Some live ->
      let bits = Bits.create nregs in
      List.iter (fun (k, d) -> if live d then Bits.add bits k) !spec_dsts;
      Some bits
  in
  (* (position, live destinations at its target), most recent first *)
  let branches : (int * Bits.t option) list ref = ref [] in
  let stores_since_branch : int list ref = ref [] in
  (* (position, destination index) of earlier register-writing
     instructions: a later branch pins every one whose destination is
     live at its target (on the taken path the write must already have
     happened). *)
  let defs_so_far : (int * int) list ref = ref [] in
  let intern = interner () in
  (* earlier memory operations, most recent first *)
  let mems : mem_fact list ref = ref [] in
  Array.iteri
    (fun p item ->
      match item with
      | Block.Loop _ | Block.Lbl _ -> ()
      | Block.Ins i ->
        (* Register flow dependences: uses before defs. *)
        List.iter
          (fun r ->
            let d = last_def.(r) in
            if d >= 0 then
              (match Sb.insn sb d with
              | Some di -> add d p Flow (Machine.latency di.Insn.op)
              | None -> ());
            uses_since.(r) <- p :: uses_since.(r))
          uses_ix.(p);
        List.iter
          (fun r ->
            List.iter (fun u -> add u p Anti 0) uses_since.(r);
            if last_def.(r) >= 0 then add last_def.(r) p Output 0;
            last_def.(r) <- p;
            uses_since.(r) <- [])
          defs_ix.(p);
        (* Memory dependences. *)
        if Insn.is_mem i then begin
          let m = mem_fact lv ~pre_env ~intern p i in
          List.iter
            (fun q ->
              if (m.mstore || q.mstore) && may_alias lv q m then
                add q.mpos p Mem (if q.mstore then 1 else 0))
            !mems;
          mems := m :: !mems
        end;
        (* Control dependences. *)
        if Insn.is_branch i then begin
          (match !branches with (b, _) :: _ -> add b p Ctrl 0 | [] -> ());
          List.iter (fun s -> add s p Ctrl 0) !stores_since_branch;
          stores_since_branch := [];
          let live = live_bits i in
          (* Writes whose results the taken path needs may not sink below
             this branch. *)
          List.iter
            (fun (q, d) ->
              match live with
              | None -> add q p Ctrl 0
              | Some bits -> if Bits.mem bits d then add q p Ctrl 0)
            !defs_so_far;
          branches := (p, live) :: !branches
        end
        else if Insn.is_store i then begin
          (match !branches with (b, _) :: _ -> add b p Ctrl 0 | [] -> ());
          stores_since_branch := p :: !stores_since_branch
        end
        else begin
          (* Speculatable instruction: may not hoist above a branch whose
             off-path target needs its destination. *)
          match defs_ix.(p) with
          | [] -> ()
          | d :: _ ->
            List.iter
              (fun (b, live) ->
                match live with
                | None -> add b p Ctrl 0
                | Some bits -> if Bits.mem bits d then add b p Ctrl 0)
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
  (* Deduplicate keeping the max latency per (src, dst): bucket the edges
     by source, then per source keep each destination's best latency in
     a scratch array (latencies are non-negative, -1 means unseen). *)
  let by_src = Array.make n [] in
  List.iter (fun e -> by_src.(e.esrc) <- e :: by_src.(e.esrc)) !edges;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let best = Array.make n (-1) in
  Array.iteri
    (fun s es ->
      let touched =
        List.fold_left
          (fun acc e ->
            let b = best.(e.edst) in
            if b < 0 then begin
              best.(e.edst) <- e.lat;
              e.edst :: acc
            end
            else begin
              if e.lat > b then best.(e.edst) <- e.lat;
              acc
            end)
          [] es
      in
      List.iter
        (fun d ->
          let lat = best.(d) in
          succs.(s) <- (d, lat) :: succs.(s);
          preds.(d) <- (s, lat) :: preds.(d);
          best.(d) <- -1)
        touched)
    by_src;
  { sb; nodes = insn_positions; edges = !edges; succs; preds }

(* Longest-path height of each node to the end of the segment, counting
   the node's own latency; the classic list-scheduling priority. *)
let heights (t : t) : int array =
  let n = Sb.length t.sb in
  let h = Array.make n 0 in
  let order = List.rev t.nodes in
  List.iter
    (fun p ->
      let lat_self =
        match Sb.insn t.sb p with Some i -> Machine.latency i.Insn.op | None -> 0
      in
      let succ_max =
        List.fold_left (fun acc (d, lat) -> max acc (h.(d) + lat)) 0 t.succs.(p)
      in
      h.(p) <- max lat_self succ_max)
    order;
  h

(* ---- Loop-carried dependences and recurrence circuits ----

   A carried edge relates an instruction of iteration [j] to one of
   iteration [j + dist]. Register dependences always have distance 1
   (the reaching definition of a carried use is in the previous
   iteration); memory dependences get their distance from the linear
   address analysis when both addresses advance by the same per-
   iteration step, and fall back to a conservative distance-1 pair of
   edges otherwise. *)

type cedge = { cesrc : int; cedst : int; ckind : kind; clat : int; cdist : int }

let carried ?(pre_env = Reg.Map.empty) (t : t) : cedge list =
  let sb = t.sb in
  let lv = Linval.analyze sb in
  let out = ref [] in
  let add cesrc cedst ckind clat cdist =
    out := { cesrc; cedst; ckind; clat; cdist } :: !out
  in
  (* Per-register definition and use positions, in program order. *)
  let defs : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let uses : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let push tbl (r : Reg.t) p =
    Hashtbl.replace tbl r.Reg.id (p :: Option.value ~default:[] (Hashtbl.find_opt tbl r.Reg.id))
  in
  Sb.iter_insns
    (fun p i ->
      List.iter (fun r -> push uses r p) (Insn.uses i);
      List.iter (fun r -> push defs r p) (Insn.defs i))
    sb;
  Hashtbl.iter
    (fun rid def_ps ->
      let def_ps = List.rev def_ps in
      let first_def = List.hd def_ps in
      let last_def = List.hd (List.rev def_ps) in
      let lat =
        match Sb.insn sb last_def with
        | Some i -> Machine.latency i.Insn.op
        | None -> 1
      in
      let use_ps = List.rev (Option.value ~default:[] (Hashtbl.find_opt uses rid)) in
      List.iter
        (fun u ->
          (* A use with no earlier definition reads the value carried
             from the previous iteration's last definition. *)
          if u <= first_def then add last_def u Flow lat 1;
          (* A use at or after the last definition is overwritten by the
             next iteration's first definition. *)
          if u >= last_def then add u first_def Anti 0 1)
        use_ps;
      add last_def first_def Output 0 1)
    defs;
  (* Memory: relate every (store, mem) pair across iterations. *)
  let mems = ref [] in
  Sb.iter_insns
    (fun p i -> if Insn.is_mem i then mems := (p, Insn.is_store i, Linval.address lv p) :: !mems)
    sb;
  let mems = List.rev !mems in
  let mem_lat src_is_store = if src_is_store then 1 else 0 in
  let conservative p pst q qst =
    add p q Mem (mem_lat pst) 1;
    if p <> q then add q p Mem (mem_lat qst) 1
  in
  let relate (p, pst, pa) (q, qst, qa) =
    if pst || qst then
      match pa, qa with
      | Some x, Some y -> (
        (* Disjoint array bases never alias at any distance. *)
        let distinct_bases =
          match Linval.label_of_addr x, Linval.label_of_addr y with
          | Some la, Some lb -> la <> lb
          | _ -> false
        in
        if distinct_bases then ()
        else
          match Linval.lin_step lv x, Linval.lin_step lv y with
          | Some sx, Some sy when sx = sy -> (
            let d = Linval.subst pre_env (Linval.sub x y) in
            if not (Linval.is_const d) then conservative p pst q qst
            else
              let dc = d.Linval.c in
              let s = sx in
              if s = 0 then begin
                (* Addresses invariant: alias every iteration iff equal. *)
                if dc = 0 then conservative p pst q qst
              end
              else if dc <> 0 && dc mod s = 0 then begin
                (* x(j) = y(j + dc/s): a dependence at that distance. *)
                let dd = dc / s in
                if dd >= 1 then add p q Mem (mem_lat pst) dd
                else add q p Mem (mem_lat qst) (-dd)
              end
              (* dc = 0: same iteration only (intra-iteration edge);
                 non-divisible dc: never equal at any distance. *))
          | _ -> conservative p pst q qst)
      | _ -> conservative p pst q qst
  in
  let rec pairs = function
    | [] -> ()
    | m :: rest ->
      relate m m;
      List.iter (fun m' -> relate m m') rest;
      pairs rest
  in
  pairs mems;
  List.rev !out

(* Enumerate the elementary circuits of the dependence graph extended
   with carried edges. Only true (flow and memory) dependences
   participate: a modulo scheduler removes register anti/output edges by
   renaming, so circuits through them are not recurrences and would
   inflate RecMII (e.g. the store -> counter-increment anti edge of a
   DOALL loop). Every circuit must contain at least one carried edge
   (the intra-iteration true-dependence graph is acyclic), so its
   distance sum is positive. Enumeration is Tiernan-style (each circuit
   reported once, rooted at its smallest position) and capped: the cap
   only loses circuits for pathologically dense graphs, and callers that
   need an exact bound should fall back to a feasibility search. *)
let cycles ?(limit = 2000) (t : t) (carried : cedge list) :
    (int list * int * int) list =
  let n = Sb.length t.sb in
  let adj = Array.make n [] in
  List.iter
    (fun e ->
      match e.kind with
      | Flow | Mem -> adj.(e.esrc) <- (e.edst, e.lat, 0) :: adj.(e.esrc)
      | Anti | Output | Ctrl -> ())
    t.edges;
  List.iter
    (fun e ->
      match e.ckind with
      | Flow | Mem -> adj.(e.cesrc) <- (e.cedst, e.clat, e.cdist) :: adj.(e.cesrc)
      | Anti | Output | Ctrl -> ())
    carried;
  Array.iteri (fun p l -> adj.(p) <- List.rev l) adj;
  let found = ref [] in
  let count = ref 0 in
  let steps = ref 0 in
  let max_steps = 200_000 in
  let on_path = Array.make n false in
  let rec dfs root path lat dist p =
    if !count < limit && !steps < max_steps then begin
      incr steps;
      List.iter
        (fun (q, l, d) ->
          if !count < limit then
            if q = root then begin
              found := (List.rev path, lat + l, dist + d) :: !found;
              incr count
            end
            else if q > root && not on_path.(q) then begin
              on_path.(q) <- true;
              dfs root (q :: path) (lat + l) (dist + d) q;
              on_path.(q) <- false
            end)
        adj.(p)
    end
  in
  List.iter
    (fun root ->
      if !count < limit then begin
        on_path.(root) <- true;
        dfs root [ root ] 0 0 root;
        on_path.(root) <- false
      end)
    t.nodes;
  List.rev !found

(* Maximum cycle ratio ceil(latency / distance) over the enumerated
   recurrence circuits: the classic RecMII lower bound on the initiation
   interval of a modulo schedule. 1 when there is no recurrence. *)
let max_cycle_ratio (t : t) (carried : cedge list) : int =
  List.fold_left
    (fun acc (_, lat, dist) -> if dist <= 0 then acc else max acc ((lat + dist - 1) / dist))
    1 (cycles t carried)
