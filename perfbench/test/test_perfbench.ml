(* Tests of the benchmark's own code: the declared metrics, the metrics
   each workload emits, and that its correctness checks can fail. *)

open Perfbench
module Jsonl = Pcc.Jsonl

let work_dir =
  let d = "perfbench-test-work" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let run ?pinned ~trace workload =
  Bench.run ~size:Bench.Tiny ?pinned ~workload ~seed:Pins.default_seed ~seconds:0.0 ~trace
    ~work_dir ()

let benchmark_json =
  lazy
    (let ic = open_in_bin "../../BENCHMARK.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match Jsonl.of_string s with Ok j -> j | Error e -> Alcotest.fail e)

let field name j =
  match Jsonl.member name j with Some v -> v | None -> Alcotest.failf "missing %S" name

let str j = Option.get (Jsonl.get_string j)

let items name = Option.get (Jsonl.get_list (field name (Lazy.force benchmark_json)))

let test_names_valid () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (m : Metrics.spec) ->
      Alcotest.(check bool) ("valid name " ^ m.name) true (Metrics.valid_name m.name))
    all;
  let names = List.map (fun (m : Metrics.spec) -> m.name) all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "rejects a space" false (Metrics.valid_name "a b");
  Alcotest.(check bool) "rejects a leading dot" false (Metrics.valid_name ".a")

(* BENCHMARK.json lists exactly the metrics and workloads the code
   emits, with the same units, directions and bounds. *)
let test_benchmark_json_agrees () =
  let declared specs json =
    Alcotest.(check (list string))
      "metric names"
      (List.map (fun (m : Metrics.spec) -> m.name) specs)
      (List.map (fun j -> str (field "name" j)) json);
    List.iter2
      (fun (m : Metrics.spec) j ->
        Alcotest.(check string) (m.name ^ " unit") m.unit (str (field "unit" j));
        Alcotest.(check string)
          (m.name ^ " better") (Metrics.better_name m.better) (str (field "better" j));
        match m.bound with
        | Some b ->
            Alcotest.(check (float 1e-9)) (m.name ^ " bound") b
              (Option.get (Jsonl.get_float (field "bound" j)))
        | None -> Alcotest.(check bool) (m.name ^ " has no bound") true (Jsonl.member "bound" j = None))
      specs json
  in
  declared Metrics.end_to_end (items "end_to_end");
  declared Metrics.per_layer (items "per_layer");
  Alcotest.(check (list string))
    "workloads" Bench.workloads
    (List.map (fun j -> str (field "name" j)) (items "workloads"))

(* Each workload's untraced run emits every end-to-end metric and its
   traced run every per-layer metric, all finite, and both pass their
   correctness checks. *)
let test_emits_declared workload () =
  List.iter
    (fun trace ->
      let o = run ~trace workload in
      Alcotest.(check (list string))
        (Printf.sprintf "%s trace=%b metrics" workload trace)
        (List.map (fun (m : Metrics.spec) -> m.name) (Metrics.declared ~trace))
        (List.map fst o.Bench.values);
      List.iter
        (fun (name, v) -> Alcotest.(check bool) (name ^ " is finite") true (Float.is_finite v))
        o.values;
      if not (Bench.correct o.tally) then
        Alcotest.failf "%s trace=%b failed its checks: %s" workload trace
          (String.concat "; " o.tally.problems);
      let line =
        Metrics.result_line ~trace ~correct:true ~attempted:o.tally.attempted
          ~failed:o.tally.failed o.values
      in
      match Jsonl.of_string line with
      | Ok j -> Alcotest.(check bool) "result line has metrics" true (Jsonl.member "metrics" j <> None)
      | Error e -> Alcotest.failf "result line is not JSON: %s" e)
    [ false; true ]

(* A pin table built from what a run observed passes; perturbing one
   pinned value fails the run. *)
let test_perturbed_pin_fails workload () =
  let observed = (run ~trace:false workload).Bench.tally.seen in
  Alcotest.(check bool) "something was checked" true (observed <> []);
  let ok = run ~pinned:(Some observed) ~trace:false workload in
  Alcotest.(check bool) "observed pins pass" true (Bench.correct ok.tally);
  let perturbed =
    List.mapi (fun i (k, v) -> if i = 0 then (k, v ^ "0") else (k, v)) observed
  in
  let bad = run ~pinned:(Some perturbed) ~trace:false workload in
  Alcotest.(check bool) "perturbed pin fails" false (Bench.correct bad.tally);
  Alcotest.(check bool) "counted as failed runs" true (bad.tally.failed > 0);
  let unpinned = run ~pinned:(Some []) ~trace:false workload in
  Alcotest.(check bool) "a missing pin fails" false (Bench.correct unpinned.tally)

(* The exhaustive explorations must reach exactly the pinned counts. *)
let test_perturbed_state_count_fails () =
  let t = Bench.tally () in
  let s = { Bench.lines = [] } in
  let models =
    List.map
      (fun (m : Mcheck_wl.model) -> { m with full_states = m.full_states + 1 })
      (Mcheck_wl.models ~tiny:true)
  in
  ignore (Bench.traced_mcheck t s ~size:Bench.Tiny ~pinned:None models);
  Alcotest.(check bool) "perturbed state count fails" false (Bench.correct t)

let test_nothing_checked_fails () =
  Alcotest.(check bool) "an empty tally is not correct" false (Bench.correct (Bench.tally ()))

let test_quartiles_match_python () =
  (* statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) *)
  let q1, q2, q3 = Qstats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let () =
  Isolated.quota_s := 0.01;
  Refkernel.iterations := 1_000;
  let per_workload ?(only = Bench.workloads) name f =
    List.map (fun w -> Alcotest.test_case (name ^ " " ^ w) `Quick (f w)) only
  in
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "names are valid and unique" `Quick test_names_valid;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json_agrees;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles_match_python;
        ] );
      ("workloads", per_workload "emits declared metrics" test_emits_declared);
      ( "checks",
        (* cell rows on a simulation workload, bounded state counts on mcheck *)
        per_workload ~only:[ "apps"; "mcheck" ] "perturbed pin fails" test_perturbed_pin_fails
        @ [
            Alcotest.test_case "perturbed exhaustive state count fails" `Quick
              test_perturbed_state_count_fails;
            Alcotest.test_case "nothing checked fails" `Quick test_nothing_checked_fails;
          ] );
    ]
