(* The five cumulative transformation levels of the paper's evaluation
   (Section 3.2):

     Conv  conventional scalar optimizations
     Lev1  + loop unrolling
     Lev2  + register renaming
     Lev3  + operation combining, strength reduction, tree height reduction
     Lev4  + accumulator / induction / search variable expansion

   Within a level the passes are ordered so each sees the code shape it
   expects: the expansion transformations run on the raw unrolled body
   (where an induction variable still has k identical increments, as in
   the paper's Figure 4), and renaming runs after them. *)

open Impact_ir

type t = Conv | Lev1 | Lev2 | Lev3 | Lev4

let all = [ Conv; Lev1; Lev2; Lev3; Lev4 ]

let to_string = function
  | Conv -> "Conv"
  | Lev1 -> "Lev1"
  | Lev2 -> "Lev2"
  | Lev3 -> "Lev3"
  | Lev4 -> "Lev4"

let of_string = function
  | "conv" | "Conv" -> Some Conv
  | "lev1" | "Lev1" -> Some Lev1
  | "lev2" | "Lev2" -> Some Lev2
  | "lev3" | "Lev3" -> Some Lev3
  | "lev4" | "Lev4" -> Some Lev4
  | _ -> None

let rank = function Conv -> 0 | Lev1 -> 1 | Lev2 -> 2 | Lev3 -> 3 | Lev4 -> 4

let includes a b = rank a >= rank b

let cleanup = Impact_opt.Conv.cleanup

(* Telemetry wrapper around one transformation: a span per pass plus
   counters for the IR growth it caused (instruction and fresh-register
   deltas). One atomic load when telemetry is off. *)
let pass name f (p : Prog.t) : Prog.t =
  if not (Impact_obs.Obs.enabled ()) then f p
  else
    Impact_obs.Obs.span ~cat:"pass" ("pass." ^ name) (fun () ->
      let insns0 = List.length (Block.insns p.Prog.entry) in
      let regs0 = Reg.gen_count p.Prog.ctx.Prog.rgen in
      let p' = f p in
      let dinsns = List.length (Block.insns p'.Prog.entry) - insns0 in
      let dregs = Reg.gen_count p'.Prog.ctx.Prog.rgen - regs0 in
      Impact_obs.Obs.count ("pass." ^ name ^ ".runs");
      if dinsns > 0 then Impact_obs.Obs.count ~n:dinsns ("pass." ^ name ^ ".insns_added");
      if dinsns < 0 then
        Impact_obs.Obs.count ~n:(-dinsns) ("pass." ^ name ^ ".insns_removed");
      if dregs > 0 then Impact_obs.Obs.count ~n:dregs ("pass." ^ name ^ ".regs_created");
      p')

(* The factor Unroll actually applied to each innermost loop (it can
   clamp below the requested factor on tiny trips or huge bodies). *)
let record_unroll_factors (p : Prog.t) =
  if Impact_obs.Obs.collecting () then
    List.iter
      (fun (l : Block.loop) ->
        if Block.is_innermost l && l.Block.meta.Block.unrolled > 1 then begin
          Impact_obs.Obs.count "pass.unroll.loops_unrolled";
          Impact_obs.Obs.count
            (Printf.sprintf "pass.unroll.by%d" l.Block.meta.Block.unrolled)
        end)
      (Block.loops p.Prog.entry)

(* One transformation of a pipeline. [Unroll] carries the requested
   factor ([None]: Unroll's default). *)
type step =
  | Scalar
  | Unroll of int option
  | Cleanup
  | Accum_expand
  | Ind_expand
  | Search_expand
  | Rename
  | Combine
  | Strength
  | Tree_height

(* Each step's telemetry name and transformation. *)
let pass_of = function
  | Scalar -> ("conv", Impact_opt.Conv.run)
  | Unroll factor -> ("unroll", Unroll.run ?factor)
  | Cleanup -> ("cleanup", cleanup)
  | Accum_expand -> ("accum_expand", Accum_expand.run)
  | Ind_expand -> ("ind_expand", Ind_expand.run)
  | Search_expand -> ("search_expand", Search_expand.run)
  | Rename -> ("rename", Rename.run)
  | Combine -> ("combine", Combine.run)
  | Strength -> ("strength", Strength.run)
  | Tree_height -> ("tree_height", Tree_height.run)

let run_step step p =
  let name, f = pass_of step in
  let p = pass name f p in
  (match step with Unroll _ -> record_unroll_factors p | _ -> ());
  p

let pipeline ?unroll_factor level =
  let unrolled middle = (Scalar :: Unroll unroll_factor :: Cleanup :: middle) @ [ Cleanup ] in
  match level with
  | Conv -> [ Scalar ]
  | Lev1 -> unrolled []
  | Lev2 -> unrolled [ Rename ]
  | Lev3 -> unrolled [ Rename; Combine; Strength; Tree_height ]
  | Lev4 ->
    unrolled
      [ Accum_expand; Ind_expand; Search_expand; Rename; Combine; Strength; Tree_height ]

(* The pipelines form a trie: every step runs once per distinct prefix,
   on a fork of that prefix's result, so a shared prefix is computed once
   and each branch continues exactly as a fresh run of its own pipeline
   would. [p] itself is never transformed in place. *)
let apply_all ?(applied = []) pipelines p =
  let rec remaining applied pl =
    match (applied, pl) with
    | [], pl -> pl
    | a :: applied, s :: pl when a = s -> remaining applied pl
    | _ -> invalid_arg "Level.apply_all: pipeline does not start with the applied steps"
  in
  let out = Array.make (List.length pipelines) p in
  (* [branches]: (index of the pipeline, its steps still to run), for
     every pipeline whose completed prefix produced [p]. *)
  let rec eval p branches =
    let finished, pending = List.partition (fun (_, steps) -> steps = []) branches in
    List.iter (fun (i, _) -> out.(i) <- Prog.fork p) finished;
    diverge p pending
  and diverge p = function
    | [] -> ()
    | (_, step :: _) :: _ as pending ->
      let here, later = List.partition (fun (_, steps) -> List.hd steps = step) pending in
      eval (run_step step (Prog.fork p)) (List.map (fun (i, steps) -> (i, List.tl steps)) here);
      diverge p later
    | (_, []) :: _ -> assert false
  in
  eval p (List.mapi (fun i pl -> (i, remaining applied pl)) pipelines);
  Array.to_list out

let apply ?unroll_factor (level : t) (p : Prog.t) : Prog.t =
  match apply_all [ pipeline ?unroll_factor level ] p with
  | [ p ] -> p
  | _ -> assert false
