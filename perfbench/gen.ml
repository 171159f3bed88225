(* Seeded request generation. The benchmark's seed selects the draws;
   the program under test only ever sees the rendered request lines.

   The generator is a self-contained SplitMix64 stream rather than
   [Random], so the same seed yields the same lines on every OCaml
   release the repository builds with. *)

type rng = { mutable s : int64 }

let rng ~seed ~stream =
  (* Distinct (seed, stream) pairs start far apart in the sequence. *)
  { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (mul (of_int stream) 0xD1B54A32D192ED03L)) }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Uniform in [0, n). The modulo bias is below 2^-40 for the sizes
   used here. *)
let below r n = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let kernels = List.map (fun (w : Impact_workloads.Suite.t) -> w.Impact_workloads.Suite.name) Impact_workloads.Suite.all

(* ---- serve-miss: the option space the matrix never touches ---- *)

type core = Inorder | Ooo of int  (* ROB entries *)

type variant = {
  v_loop : string;
  v_level : string;  (* Lev1..Lev4, the levels that unroll *)
  v_unroll : int;  (* 2..8, always explicit, so never a matrix key *)
  v_issue : int;  (* 1..16 *)
  v_sched : string;  (* "list" | "pipe" *)
  v_core : core;
}

let miss_levels = [ "Lev1"; "Lev2"; "Lev3"; "Lev4" ]

let miss_unrolls = [ 2; 3; 4; 5; 6; 7; 8 ]

let miss_issues = List.init 16 (fun i -> i + 1)

let miss_robs = [| 16; 32; 64 |]

(* Share of variants sent to the out-of-order core, in percent. *)
let ooo_percent = 30

let variant_line v =
  let core =
    match v.v_core with
    | Inorder -> ""
    | Ooo rob -> Printf.sprintf {|, "core": "ooo", "rob": %d|} rob
  in
  Printf.sprintf {|{"loop": "%s", "level": "%s", "issue": %d, "sched": "%s", "unroll": %d%s}|}
    v.v_loop v.v_level v.v_issue v.v_sched v.v_unroll core

(* The option space in a seeded, stratified order. Every round of 40
   requests visits each kernel once, in a seeded order, and every block
   of 16 rounds gives each kernel each issue width once. Each visit goes
   to the out-of-order core with probability [ooo_percent], with a
   seeded ROB. Each (kernel, issue) pair has one seeded order of its
   (level, unroll, sched) combos per core kind, and a visit takes the
   next unused combo of its kind, or of the other kind once its own are
   used up. So every variant is distinct and every prefix is a draw
   without replacement. The first pair runs out of in-order combos
   after about 40,000 requests; from there the out-of-order share
   rises. The order holds all 71,680 variants. *)
let miss_variants ~seed : variant array =
  let r = rng ~seed ~stream:2000 in
  let issues = Array.of_list miss_issues in
  let n_issues = Array.length issues in
  let combos =
    Array.of_list
      (List.concat_map
         (fun l -> List.concat_map (fun u -> [ (l, u, "list"); (l, u, "pipe") ]) miss_unrolls)
         miss_levels)
  in
  let n_combos = Array.length combos in
  (* Each visit uses up one combo of one of the two kinds. *)
  let blocks = 2 * n_combos in
  let plan () = Array.init n_issues (fun _ -> let c = Array.copy combos in shuffle r c; c) in
  let kernels = Array.of_list kernels in
  let inorder = Array.map (fun _ -> plan ()) kernels and ooo = Array.map (fun _ -> plan ()) kernels in
  let used_in = Array.map (fun _ -> Array.make n_issues 0) kernels
  and used_ooo = Array.map (fun _ -> Array.make n_issues 0) kernels in
  let orders = Array.map (fun _ -> Array.init blocks (fun _ -> let o = Array.copy issues in shuffle r o; o)) kernels in
  let order = Array.init (Array.length kernels) Fun.id in
  Array.concat
    (List.init (blocks * n_issues) (fun round ->
       shuffle r order;
       let b = round / n_issues and j = round mod n_issues in
       Array.map
         (fun k ->
           let i = orders.(k).(b).(j) - 1 in
           let is_ooo =
             if used_in.(k).(i) = n_combos then true
             else if used_ooo.(k).(i) = n_combos then false
             else below r 100 < ooo_percent
           in
           let plans, used = if is_ooo then (ooo, used_ooo) else (inorder, used_in) in
           let l, u, s = plans.(k).(i).(used.(k).(i)) in
           used.(k).(i) <- used.(k).(i) + 1;
           let core = if is_ooo then Ooo miss_robs.(below r (Array.length miss_robs)) else Inorder in
           { v_loop = kernels.(k); v_level = l; v_unroll = u; v_issue = i + 1; v_sched = s; v_core = core })
         order))

(* Requests in one block of the stratified stream: every kernel at
   every issue width once. *)
let block_size = List.length kernels * List.length miss_issues

(* serve-miss set-up: one issue-1 Conv request per kernel and unroll
   factor, which is each variant's base measurement. Computing the
   bases before timing leaves every timed request the same work: its
   own compile, schedule, simulation and store write. *)
let base_lines =
  Array.of_list
    (List.concat_map
       (fun k ->
         List.map
           (fun u -> Printf.sprintf {|{"loop": "%s", "level": "Conv", "issue": 1, "unroll": %d}|} k u)
           miss_unrolls)
       kernels)

(* Connection [conn] of [conns] takes every [conns]-th variant, so the
   connections never share a query and each stream is fixed by the
   seed alone. [None] once the option space is used up: the connection
   then stops, and the timed phase ends early. *)
let miss_stream (vs : variant array) ~conns ~conn : unit -> variant option =
  let k = ref conn in
  fun () ->
    if !k >= Array.length vs then None
    else begin
      let v = vs.(!k) in
      k := !k + conns;
      Some v
    end
