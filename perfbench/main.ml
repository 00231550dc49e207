(* Command-line entry of the repository benchmark:

     main.exe --workload apps --seed 1 --seconds 10 --trace 0

   prints a human summary on stderr and, as the last line of stdout,
   the result object; exits 1 when a correctness check failed. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]";
  prerr_endline ("workloads: " ^ String.concat ", " Bench.workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref Pins.default_seed and seconds = ref 10.0 in
  let trace = ref false and work_dir = ref ".perfbench-work" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--work-dir" :: v :: rest -> work_dir := v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload Bench.workloads) then usage ();
  if not (Sys.file_exists !work_dir) then Sys.mkdir !work_dir 0o755;
  let o =
    Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      ~work_dir:!work_dir ()
  in
  List.iter (fun l -> prerr_endline ("perfbench " ^ !workload ^ ": " ^ l)) o.summary;
  List.iter (fun p -> prerr_endline ("perfbench " ^ !workload ^ ": FAILED " ^ p)) o.tally.problems;
  let correct = Bench.correct o.tally in
  print_endline
    (Metrics.result_line ~trace:!trace ~correct ~attempted:o.tally.attempted
       ~failed:o.tally.failed o.values);
  exit (if correct then 0 else 1)
