(* Global liveness over the flattened instruction stream. Used by dead
   code elimination, by the superblock scheduler's speculation rule
   (an instruction may move above a branch only if its destination is
   dead at the branch target), and by the register allocator.

   The analysis itself runs on dense integer register indices and
   bitsets ([Dense] below): registers are numbered 0..nregs-1 in
   [Reg.Ord] order, live sets are [Bits.t], and the backward fixpoint
   mutates them in place (live sets only grow under the union transfer
   function). Every consumer reads the dense form: DCE and the register
   allocator scan live-out bitsets, and the schedulers query the live
   set at branch targets bit by bit. *)

open Impact_ir

let successors (flat : Flatten.t) k =
  let n = Array.length flat.Flatten.code in
  let i = flat.Flatten.code.(k) in
  match i.Insn.op with
  | Insn.Jmp -> [ Flatten.target_index flat i ]
  | Insn.Br _ ->
    let t = Flatten.target_index flat i in
    if k + 1 < n then [ k + 1; t ] else [ t ]
  | _ -> if k + 1 < n then [ k + 1 ] else []

module Dense = struct
  type d = {
    flat : Flatten.t;
    regs : Reg.t array;  (* dense index -> register, ascending Reg.Ord *)
    index_tbl : int array;  (* Reg.hash -> dense index, -1 when absent *)
    live_in : Bits.t array;
    live_out : Bits.t array;
    exit_live : Bits.t;
  }

  let nregs (d : d) = Array.length d.regs

  let index_of tbl (r : Reg.t) =
    let h = Reg.hash r in
    if h < 0 || h >= Array.length tbl then -1 else tbl.(h)

  let index_opt (d : d) (r : Reg.t) =
    match index_of d.index_tbl r with -1 -> None | k -> Some k

  let reg (d : d) i = d.regs.(i)

  (* Dense numbering of every register mentioned by the code (defs and
     uses) or live at exit, in ascending [Reg.Ord] order — so ascending
     bit iteration visits registers in [Reg.Set] order. [Reg.hash] is
     [id * 2 + cls], which ascends exactly as [Reg.compare]; so marking
     each register in a table indexed by its hash and scanning the table
     upwards numbers them in order, with no hashing and no sort. *)
  let number (code : Insn.t array) (exit_live : Reg.t list) =
    let hi = ref (-1) in
    let see (r : Reg.t) = if Reg.hash r > !hi then hi := Reg.hash r in
    let iter_regs f =
      Array.iter
        (fun (i : Insn.t) ->
          Option.iter f i.Insn.dst;
          Array.iter (function Operand.Reg r -> f r | _ -> ()) i.Insn.srcs)
        code;
      List.iter f exit_live
    in
    iter_regs see;
    let tbl = Array.make (!hi + 1) (-1) in
    iter_regs (fun r -> tbl.(Reg.hash r) <- 0);
    let n = ref 0 in
    Array.iteri
      (fun h k ->
        if k = 0 then begin
          tbl.(h) <- !n;
          incr n
        end)
      tbl;
    let regs = Array.make !n (Reg.of_hash 0) in
    Array.iteri (fun h k -> if k >= 0 then regs.(k) <- Reg.of_hash h) tbl;
    (regs, tbl)

  let analyze ?(exit_live = []) (flat : Flatten.t) : d =
    let code = flat.Flatten.code in
    let n = Array.length code in
    let regs, index_tbl = number code exit_live in
    let nr = Array.length regs in
    let idx r = index_tbl.(Reg.hash r) in
    let live_in = Array.init n (fun _ -> Bits.create nr) in
    let live_out = Array.init n (fun _ -> Bits.create nr) in
    let exit_bits = Bits.create nr in
    List.iter (fun r -> Bits.add exit_bits (idx r)) exit_live;
    (* Dense index of each instruction's destination, -1 for none. *)
    let def =
      Array.map (fun (i : Insn.t) -> match i.Insn.dst with Some r -> idx r | None -> -1) code
    in
    (* Uses are a constant lower bound of live-in; seed them once. *)
    Array.iteri
      (fun k (i : Insn.t) ->
        Array.iter
          (function Operand.Reg r -> Bits.add live_in.(k) (idx r) | _ -> ())
          i.Insn.srcs)
      code;
    let succs = Array.init n (successors flat) in
    let falls_off =
      Array.init n (fun k ->
        k = n - 1 && (match code.(k).Insn.op with Insn.Jmp -> false | _ -> true))
    in
    let tmp = Bits.create nr in
    let changed = ref true in
    while !changed do
      changed := false;
      for k = n - 1 downto 0 do
        (* live_out(k) ∪= live_in over successors (program exit past the
           end contributes exit_live). *)
        let out = live_out.(k) in
        let grew = ref false in
        List.iter
          (fun s ->
            let src = if s >= n then exit_bits else live_in.(s) in
            if Bits.union_into ~into:out src then grew := true)
          succs.(k);
        if falls_off.(k) then
          if Bits.union_into ~into:out exit_bits then grew := true;
        if !grew then begin
          (* live_in(k) ∪= out \ defs(k) *)
          Bits.copy_into ~into:tmp out;
          if def.(k) >= 0 then Bits.remove tmp def.(k);
          if Bits.union_into ~into:live_in.(k) tmp then changed := true
        end
      done
    done;
    { flat; regs; index_tbl; live_in; live_out; exit_live = exit_bits }

  let of_prog (p : Prog.t) : d =
    analyze ~exit_live:(List.map snd p.Prog.outputs) (Flatten.of_prog p)

  (* Live set at a label: the live-in of the instruction the label points
     at, or the exit-live set when the label is at the end of the code. *)
  let live_at_label (d : d) lbl : Bits.t =
    match Hashtbl.find_opt d.flat.Flatten.labels lbl with
    | None -> invalid_arg ("Liveness.Dense.live_at_label: unknown label " ^ lbl)
    | Some k -> if k >= Array.length d.live_in then d.exit_live else d.live_in.(k)

  (* Membership query for the live set at a branch's target: one label
     lookup per branch, then a dense index and a bit test per register.
     A register the code never mentions is dead. *)
  let live_at_target (d : d) (i : Insn.t) : Reg.t -> bool =
    match i.Insn.target with
    | None -> invalid_arg "Liveness.Dense.live_at_target: not a branch"
    | Some l ->
      let bits = live_at_label d l in
      fun r ->
        let k = index_of d.index_tbl r in
        k >= 0 && Bits.mem bits k
end
