(* Tests of the workload generators: structure, determinism, and the
   Table 3 consumer distributions they are built to reproduce. *)

open Pcc_core
module Gen = Pcc_workload.Gen
module Apps = Pcc_workload.Apps

let count_ops p =
  Array.fold_left
    (fun (loads, stores, barriers) ops ->
      List.fold_left
        (fun (l, s, b) op ->
          match op with
          | Types.Access (Types.Load, _) -> (l + 1, s, b)
          | Types.Access (Types.Store, _) -> (l, s + 1, b)
          | Types.Barrier _ -> (l, s, b + 1)
          | Types.Compute _ -> (l, s, b))
        (loads, stores, barriers) ops)
    (0, 0, 0) p

let test_generator_determinism () =
  let spec app = Apps.programs app ~scale:0.2 ~nodes:8 ~seed:5 () in
  List.iter
    (fun app ->
      let a = spec app and b = spec app in
      Alcotest.(check bool) (app.Apps.name ^ " deterministic") true (a = b))
    Apps.all

let test_generator_seed_sensitivity () =
  let a = Apps.programs Apps.barnes ~scale:0.2 ~nodes:8 ~seed:1 () in
  let b = Apps.programs Apps.barnes ~scale:0.2 ~nodes:8 ~seed:2 () in
  Alcotest.(check bool) "different seeds differ" false (a = b)

let test_all_apps_generate () =
  List.iter
    (fun app ->
      let p = Apps.programs app ~scale:0.1 ~nodes:16 () in
      Alcotest.(check int) (app.Apps.name ^ " one program per node") 16 (Array.length p);
      let loads, stores, barriers = count_ops p in
      Alcotest.(check bool) (app.Apps.name ^ " has loads") true (loads > 0);
      Alcotest.(check bool) (app.Apps.name ^ " has stores") true (stores > 0);
      Alcotest.(check bool) (app.Apps.name ^ " has barriers") true (barriers > 0))
    Apps.all

let test_barriers_symmetric () =
  (* every node executes the same multiset of barrier ids, otherwise the
     run would hang *)
  List.iter
    (fun app ->
      let p = Apps.programs app ~scale:0.1 ~nodes:8 () in
      let barrier_ids ops =
        List.filter_map (function Types.Barrier b -> Some b | _ -> None) ops
      in
      let reference = barrier_ids p.(0) in
      Array.iteri
        (fun i ops ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s node %d barriers" app.Apps.name i)
            reference (barrier_ids ops))
        p)
    Apps.all

let test_scale_parameter () =
  let small = Gen.total_ops (Apps.programs Apps.lu ~scale:0.2 ~nodes:8 ()) in
  let big = Gen.total_ops (Apps.programs Apps.lu ~scale:1.0 ~nodes:8 ()) in
  Alcotest.(check bool) "scale grows work" true (big > 3 * small)

let test_find_by_name () =
  Alcotest.(check (option string)) "case-insensitive" (Some "Em3D")
    (Option.map (fun a -> a.Apps.name) (Apps.find "em3d"));
  Alcotest.(check bool) "unknown" true (Apps.find "spec2006" = None);
  Alcotest.(check int) "seven apps" 7 (List.length Apps.all)

let test_shared_private_disjoint () =
  let shared = Gen.shared_line ~home:3 17 in
  let priv = Gen.private_line ~node:3 17 in
  Alcotest.(check bool) "disjoint index spaces" false (shared = priv);
  Alcotest.(check int) "same home" (Types.Layout.home_of_line shared)
    (Types.Layout.home_of_line priv)

let test_consumer_samplers () =
  let rng = Pcc_engine.Rng.create ~seed:3 in
  Alcotest.(check (list int)) "ring" [ 5 ] (Gen.Consumers.ring_neighbor ~nodes:16 4);
  Alcotest.(check (list int)) "ring wraps" [ 0 ] (Gen.Consumers.ring_neighbor ~nodes:16 15);
  for _ = 1 to 100 do
    let sample = Gen.Consumers.sample ~rng ~nodes:8 ~exclude:3 ~count:4 in
    Alcotest.(check int) "count" 4 (List.length sample);
    Alcotest.(check bool) "excludes" false (List.mem 3 sample);
    Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare sample))
  done

let test_consumer_dist_sampler () =
  let rng = Pcc_engine.Rng.create ~seed:9 in
  let dist = [ (1, 0.5); (3, 0.5) ] in
  let ones = ref 0 and threes = ref 0 in
  for _ = 1 to 2000 do
    match List.length (Gen.Consumers.sample_dist ~rng ~nodes:16 ~exclude:0 ~dist) with
    | 1 -> incr ones
    | 3 -> incr threes
    | n -> Alcotest.failf "unexpected size %d" n
  done;
  let ratio = float_of_int !ones /. 2000.0 in
  Alcotest.(check bool) "roughly balanced" true (ratio > 0.45 && ratio < 0.55)

(* Measured consumer distribution: run the app and compare the Table 3
   buckets against the paper's numbers for the strongly-shaped apps. *)
let consumer_fractions app =
  (* the write-repeat counter needs four writes to saturate, so the run
     must be long enough for detection (MG has only 10 epochs at scale 1) *)
  let programs = Apps.programs app ~scale:0.8 ~nodes:16 () in
  let result = System.run ~config:(Config.large_full ()) ~programs () in
  Alcotest.(check int) (app.Apps.name ^ " coherent") 0 result.System.violations;
  let h = result.System.stats.Run_stats.consumer_hist in
  let frac n = 100.0 *. Pcc_stats.Histogram.fraction h n in
  let frac_ge n = 100.0 *. Pcc_stats.Histogram.fraction_ge h n in
  (frac 1, frac 2, frac 3, frac 4, frac_ge 5)

let test_table3_ocean () =
  let c1, _, _, _, c4plus = consumer_fractions Apps.ocean in
  Alcotest.(check bool) "Ocean ~97.7% single consumer" true (c1 > 90.0);
  Alcotest.(check bool) "Ocean few wide" true (c4plus < 5.0)

let test_table3_em3d () =
  let c1, c2, _, _, _ = consumer_fractions Apps.em3d in
  Alcotest.(check bool) "Em3D mostly 1 (67.8%)" true (c1 > 55.0 && c1 < 80.0);
  Alcotest.(check bool) "Em3D rest 2 (32.2%)" true (c2 > 20.0 && c2 < 45.0)

let test_table3_lu () =
  let c1, _, _, _, _ = consumer_fractions Apps.lu in
  Alcotest.(check bool) "LU ~99.4% single consumer" true (c1 > 95.0)

let test_table3_mg () =
  let _, _, _, _, c4plus = consumer_fractions Apps.mg in
  Alcotest.(check bool) "MG ~91.6% wide" true (c4plus > 80.0)

let test_table3_cg () =
  let _, _, _, _, c4plus = consumer_fractions Apps.cg in
  Alcotest.(check bool) "CG ~99.7% wide (detected lines)" true (c4plus > 90.0)

(* ------------------------------------------------------------------ *)
(* Workload registry (Workload.of_spec) and streaming generators        *)
(* ------------------------------------------------------------------ *)

module Workload = Pcc_workload.Workload

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let resolve spec =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 spec with
  | Ok w -> w
  | Error m -> Alcotest.failf "%s: %s" spec m

let test_registry_resolves_all () =
  (* every registered name except trace (which requires file=) resolves
     with defaults, and its describe string re-resolves to itself *)
  List.iter
    (fun name ->
      if name <> "trace" then begin
        let w = resolve name in
        Alcotest.(check bool)
          (name ^ " nodes positive") true
          (Workload.nodes w > 0);
        let described = Workload.describe w in
        let w' = resolve described in
        Alcotest.(check string)
          (name ^ " describe respawnable") described (Workload.describe w')
      end)
    (Workload.names ())

let test_registry_rejects_unknown_name () =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 "nosuchworkload" with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error m ->
      Alcotest.(check bool) "names the offender" true
        (contains ~needle:"nosuchworkload" m);
      (* the full valid-name list is part of the contract *)
      List.iter
        (fun name ->
          Alcotest.(check bool) ("lists " ^ name) true (contains ~needle:name m))
        (Workload.names ())

let test_registry_suggests_close_name () =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 "pubsup" with
  | Ok _ -> Alcotest.fail "misspelling accepted"
  | Error m ->
      Alcotest.(check bool) "suggests pubsub" true (contains ~needle:"pubsub" m)

let test_registry_rejects_unknown_key () =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 "kv:bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error m ->
      Alcotest.(check bool) "names the key" true (contains ~needle:"bogus" m);
      Alcotest.(check bool) "lists a valid key" true (contains ~needle:"skew" m)

let test_registry_rejects_malformed_value () =
  (* unparsable values, and values out of the range the generator can
     use; every message names the offending key *)
  List.iter
    (fun (spec, key) ->
      match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 spec with
      | Ok _ -> Alcotest.failf "malformed value accepted: %s" spec
      | Error message ->
          if not (contains ~needle:("key " ^ key) message) then
            Alcotest.failf "%s: message does not name key %s: %s" spec key message)
    [
      ("kv:skew=banana", "skew");
      ("kv:skew=-3", "skew");
      ("kv:skew=nan", "skew");
      ("kv:skew=inf", "skew");
      ("kv:write-frac=1.5", "write-frac");
      ("kv:write-frac=-0.1", "write-frac");
      ("kv:keys=0", "keys");
      ("kv:ops=-2", "ops");
      ("kv:events=0", "events");
      ("pubsub:topics=0", "topics");
      ("pubsub:fanout=-1", "fanout");
      ("pubsub:skew=-0.5", "skew");
      ("worksteal:steal-frac=2", "steal-frac");
      ("worksteal:queue=0", "queue");
      ("worksteal:tasks=0", "tasks");
      ("mpsc:slots=0", "slots");
      ("mpsc:rotate=0", "rotate");
      ("mpsc:appends=-1", "appends");
      ("mpsc:consumers=-1", "consumers");
      ("mpsc:events=-5", "events");
    ];
  (* documented zero defaults stay accepted *)
  List.iter
    (fun spec ->
      match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 spec with
      | Ok _ -> ()
      | Error message -> Alcotest.failf "%s rejected: %s" spec message)
    [ "pubsub:fanout=0,events=2000"; "mpsc:consumers=0,events=2000"; "kv:skew=0,write-frac=1" ]

let test_streaming_generator_determinism () =
  (* same spec, two independent resolutions: the drained streams are
     identical op for op *)
  List.iter
    (fun spec ->
      let a = Workload.programs (resolve spec) in
      let b = Workload.programs (resolve spec) in
      Alcotest.(check bool) (spec ^ " deterministic") true (a = b))
    [
      "kv:events=2000,seed=3";
      "pubsub:events=2000,seed=3";
      "worksteal:events=2000,seed=3";
      "mpsc:events=2000,seed=3";
    ]

let test_streaming_generator_skew_knob () =
  (* the consumer-distribution knob actually changes the access pattern *)
  List.iter
    (fun name ->
      let spec skew = Printf.sprintf "%s:events=2000,seed=3,skew=%s" name skew in
      let flat = Workload.programs (resolve (spec "0.2")) in
      let peaked = Workload.programs (resolve (spec "1.6")) in
      Alcotest.(check bool) (name ^ " skew changes stream") false (flat = peaked))
    [ "kv"; "pubsub"; "worksteal"; "mpsc" ]

let test_streaming_matches_materialized () =
  (* the legacy apps exposed through the registry stream exactly what
     Apps.programs materializes — the bit-identity the tentpole promises *)
  List.iter
    (fun (name, app) ->
      let w = resolve name in
      let via_registry = Workload.programs w in
      let direct = Apps.programs app ~scale:0.1 ~seed:5 ~nodes:8 () in
      Alcotest.(check bool) (name ^ " matches Apps.programs") true
        (via_registry = direct))
    [ ("em3d", Apps.em3d); ("ocean", Apps.ocean); ("lu", Apps.lu) ]

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_sensitivity;
    Alcotest.test_case "all apps generate" `Quick test_all_apps_generate;
    Alcotest.test_case "barriers symmetric" `Quick test_barriers_symmetric;
    Alcotest.test_case "scale parameter" `Quick test_scale_parameter;
    Alcotest.test_case "find by name" `Quick test_find_by_name;
    Alcotest.test_case "shared/private disjoint" `Quick test_shared_private_disjoint;
    Alcotest.test_case "consumer samplers" `Quick test_consumer_samplers;
    Alcotest.test_case "consumer dist sampler" `Quick test_consumer_dist_sampler;
    Alcotest.test_case "registry resolves all" `Quick test_registry_resolves_all;
    Alcotest.test_case "registry rejects unknown name" `Quick
      test_registry_rejects_unknown_name;
    Alcotest.test_case "registry suggests close name" `Quick
      test_registry_suggests_close_name;
    Alcotest.test_case "registry rejects unknown key" `Quick
      test_registry_rejects_unknown_key;
    Alcotest.test_case "registry rejects malformed value" `Quick
      test_registry_rejects_malformed_value;
    Alcotest.test_case "streaming generator determinism" `Quick
      test_streaming_generator_determinism;
    Alcotest.test_case "streaming generator skew knob" `Quick
      test_streaming_generator_skew_knob;
    Alcotest.test_case "streaming matches materialized" `Quick
      test_streaming_matches_materialized;
    Alcotest.test_case "Table 3: Ocean" `Slow test_table3_ocean;
    Alcotest.test_case "Table 3: Em3D" `Slow test_table3_em3d;
    Alcotest.test_case "Table 3: LU" `Slow test_table3_lu;
    Alcotest.test_case "Table 3: MG" `Slow test_table3_mg;
    Alcotest.test_case "Table 3: CG" `Slow test_table3_cg;
  ]
