(* perfbench: one command that runs a workload against the shipped
   code, checks every output and prints each metric by name and unit.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--impactc PATH] [--t0 EPOCH]

   The last stdout line is the JSON result. --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones from a traced run.
   --t0 is the launcher's clock reading when it started the process, so
   set-up time counts from process start. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload matrix-cold|serve-miss|certify --seed N --seconds S \
     --trace 0|1 [--impactc PATH] [--t0 EPOCH]\n\
    \       main.exe --print-base-outputs";
  exit 2

let () =
  let t_start = ref (Unix.gettimeofday ()) in
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := Option.map float_of_int (int_of_string_opt v); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--impactc" :: v :: rest -> Serve.impactc := v; parse rest
    | "--t0" :: v :: rest -> Option.iter (fun t -> t_start := t) (float_of_string_opt v); parse rest
    | [ "--print-base-outputs" ] -> Matrix.print_base_outputs (); exit 0
    | [ "--setup-probe"; "matrix-cold" ] -> Matrix.setup (); exit 0
    | [ "--setup-probe"; "certify" ] -> Certify.setup (); exit 0
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 -> (
    Common.info "host %s" (Perfbench.Host.fingerprint ());
    Common.info "workload %s seed %d seconds %g trace %b" !workload seed seconds trace;
    at_exit Serve.kill_all;
    let run () =
      match (!workload, trace) with
      | "matrix-cold", false -> Matrix.run ~seconds ~t_start:!t_start
      | "matrix-cold", true -> Matrix.run_traced ()
      | "certify", false -> Certify.run ~seconds ~t_start:!t_start
      | "certify", true -> Certify.run_traced ()
      | "serve-miss", false -> Serve.run ~seed ~seconds ~t_start:!t_start
      | "serve-miss", true -> Serve.run_traced ~seed ~seconds
      | _ -> usage ()
    in
    match run () with
    | () -> ()
    | exception Common.Premise msg ->
      Common.progress "premise failed: %s" msg;
      exit 1)
  | _ -> usage ()
