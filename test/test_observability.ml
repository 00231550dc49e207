(* The observability layer's contracts:

   - Flight recorder: the int-packed ring survives an encode → dump →
     JSON → decode round-trip bit-exactly, including wrap-around, and a
     truncated run leaves a well-formed dump behind that the decoder can
     fully render.
   - One event stream: every [System.on_*] subscriber sees exactly the
     events the flight ring records, in the same order, on either
     backend, and observers on one channel fire in registration order.
   - Metrics registry: the export bytes are a pure function of the run
     results, so a --jobs 4 sweep produces the same JSON and OpenMetrics
     files as --jobs 1. *)

module Q = QCheck
module Ring = Pcc_core.Flight_ring
module Flight = Pcc_telemetry.Flight
module Registry = Pcc_telemetry.Registry
module Pool = Pcc_parallel.Pool
module Jsonl = Pcc_stats.Jsonl
module Apps = Pcc_workload.Apps
module Oracle = Pcc_oracle
open Pcc_core

(* ------------------------------------------------------------------ *)
(* Flight ring round-trip                                              *)
(* ------------------------------------------------------------------ *)

(* Fields stay inside their packed widths (detail 8 bits, src/dst 12
   bits); [line = -1] — "no line" — is generated too. *)
let gen_event =
  Q.Gen.(
    map2
      (fun (kind, detail, src, dst) (time, arg, line) ->
        {
          Ring.e_time = time;
          e_kind = kind;
          e_detail = detail;
          e_src = src;
          e_dst = dst;
          e_arg = arg;
          e_line = line;
        })
      (quad
         (int_bound (Ring.kind_count - 1))
         (int_bound 255) (int_bound 4095) (int_bound 4095))
      (triple (int_bound 1_000_000) (int_bound 1_000_000)
         (map (fun l -> l - 1) (int_bound 1_000))))

let record_all ring evs =
  List.iter
    (fun e ->
      Ring.record ring ~time:e.Ring.e_time ~kind:e.Ring.e_kind
        ~detail:e.Ring.e_detail ~src:e.Ring.e_src ~dst:e.Ring.e_dst
        ~line:e.Ring.e_line ~arg:e.Ring.e_arg)
    evs

let flight_roundtrip =
  Q.Test.make ~name:"flight ring: record -> dump -> decode round-trip" ~count:200
    (Q.make
       ~print:(fun (cap, evs) ->
         Printf.sprintf "capacity %d, %d events" cap (List.length evs))
       Q.Gen.(pair (int_range 1 40) (list_size (int_range 0 150) gen_event)))
    (fun (capacity, evs) ->
      let ring = Ring.create ~capacity () in
      record_all ring evs;
      let cap = Ring.capacity ring in
      let n = List.length evs in
      (* the retained window is the last [cap] events, oldest first *)
      let expected =
        if n <= cap then evs else List.filteri (fun i _ -> i >= n - cap) evs
      in
      if Ring.total ring <> n then
        Q.Test.fail_reportf "total: %d recorded, ring says %d" n (Ring.total ring);
      if Ring.events ring <> expected then
        Q.Test.fail_reportf "retained window disagrees (capacity %d, %d events)" cap n;
      let json =
        Ring.dump_to_json
          (Ring.snapshot ring ~reason:"roundtrip" ~time:123 ~nodes:4 ~config:"cfg")
      in
      match Jsonl.of_string (Jsonl.to_string json) with
      | Error m -> Q.Test.fail_reportf "dump JSON does not reparse: %s" m
      | Ok reparsed -> (
          match Ring.dump_of_json reparsed with
          | Error m -> Q.Test.fail_reportf "dump does not decode: %s" m
          | Ok d ->
              d.Ring.d_reason = "roundtrip"
              && d.Ring.d_time = 123 && d.Ring.d_nodes = 4
              && d.Ring.d_config = "cfg" && d.Ring.d_recorded = n
              && d.Ring.d_capacity = cap && d.Ring.d_events = expected))

(* Wrap-around, deterministically: 3x capacity through a tiny ring. *)
let test_ring_wraparound () =
  let ring = Ring.create ~capacity:8 () in
  let cap = Ring.capacity ring in
  let total = 3 * cap in
  for i = 0 to total - 1 do
    Ring.record ring ~time:i ~kind:Ring.k_issue ~detail:(i land 1) ~src:(i land 3)
      ~dst:0 ~line:i ~arg:(2 * i)
  done;
  Alcotest.(check int) "total counts every record" total (Ring.total ring);
  let retained = Ring.events ring in
  Alcotest.(check int) "window is one capacity" cap (List.length retained);
  List.iteri
    (fun j e ->
      let i = total - cap + j in
      Alcotest.(check int) "time" i e.Ring.e_time;
      Alcotest.(check int) "line" i e.Ring.e_line;
      Alcotest.(check int) "arg" (2 * i) e.Ring.e_arg)
    retained

(* ------------------------------------------------------------------ *)
(* Registry export determinism across --jobs                           *)
(* ------------------------------------------------------------------ *)

let registry_exports ~jobs =
  let nodes = 6 in
  let configs = [ Config.base ~nodes (); Config.small_full ~nodes () ] in
  let tasks =
    List.concat_map
      (fun (app : Apps.app) ->
        let programs = Apps.programs app ~scale:0.1 ~nodes () in
        List.map
          (fun config ->
            ( app.Apps.name ^ "/" ^ Config.describe config,
              fun () -> System.run ~config ~programs () ))
          configs)
      [ Apps.lu; Apps.cg ]
  in
  let results = Pool.run_keyed ~jobs tasks in
  let registry = Registry.create () in
  List.iter (fun r -> Registry.add_result ~summaries:false registry r) results;
  (Jsonl.to_string (Registry.to_json registry), Registry.to_openmetrics registry)

let test_registry_jobs_determinism () =
  let json1, text1 = registry_exports ~jobs:1 in
  let json4, text4 = registry_exports ~jobs:4 in
  Alcotest.(check string) "JSON snapshot identical at jobs 1 vs 4" json1 json4;
  Alcotest.(check string) "OpenMetrics identical at jobs 1 vs 4" text1 text4;
  Alcotest.(check bool) "exposition terminated" true
    (Astring_contains.contains text1 "# EOF")

(* ------------------------------------------------------------------ *)
(* Forced stall leaves a decodable post-mortem                         *)
(* ------------------------------------------------------------------ *)

let test_stall_dump_wellformed () =
  let desc =
    { Oracle.Trace.bench = "random"; config_name = "full"; nodes = 6; scale = 0.1;
      seed = 4; fault = false }
  in
  let config = Oracle.Trace.config_of_desc desc in
  let programs = Oracle.Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  let path = Filename.temp_file "pcc-flight" ".json" in
  System.arm_flight_dump sys ~path;
  let result = System.run_programs ~max_events:300 sys programs in
  (match result.System.stall with
  | None -> Alcotest.fail "a truncated run must carry a stall report"
  | Some stall ->
      Alcotest.(check (option string))
        "stall report points at the dump" (Some path)
        stall.System.stall_flight_dump);
  (match Flight.load path with
  | Error m -> Alcotest.failf "dump not decodable: %s" m
  | Ok dump ->
      Alcotest.(check int) "node count" 6 dump.Ring.d_nodes;
      Alcotest.(check bool) "window non-empty" true (dump.Ring.d_events <> []);
      Alcotest.(check bool) "recorded covers the window" true
        (dump.Ring.d_recorded >= List.length dump.Ring.d_events);
      (* the decoder is total over everything the recorder wrote *)
      List.iter
        (fun e ->
          if String.length (Ring.describe e) = 0 then
            Alcotest.failf "event at t=%d renders empty" e.Ring.e_time)
        dump.Ring.d_events;
      let text = Format.asprintf "%a" Flight.pp_timeline dump in
      Alcotest.(check bool) "timeline names the reason" true
        (Astring_contains.contains text dump.Ring.d_reason));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* One event stream: subscribers vs the flight ring                    *)
(* ------------------------------------------------------------------ *)

module Fault = Pcc_interconnect.Fault

let op_code = function Types.Load -> 0 | Types.Store -> 1

let phase_code = function
  | System.Crash_down -> 0
  | System.Crash_detected -> 1
  | System.Crash_restarted -> 2

(* Subscribe to every channel the ring also records, logging each event
   as the ring would pack it: (time, kind, detail, src, dst, line). *)
let subscribe_all sys =
  let log = ref [] in
  let push e = log := e :: !log in
  let msg kind ~time ~src ~dst m =
    push (time, kind, Message.class_index m, src, dst, Message.line_of m)
  in
  System.on_message sys (msg Ring.k_send);
  System.on_recv sys (msg Ring.k_recv);
  System.on_issue sys (fun ~time ~node ~kind ~line ->
      push (time, Ring.k_issue, op_code kind, node, node, line));
  System.on_commit sys (fun (c : Probe.commit_event) ->
      push (c.c_time, Ring.k_commit, op_code c.c_kind, c.c_node, c.c_node, c.c_line));
  System.on_retransmit sys (fun ~time ~src ~dst ->
      push (time, Ring.k_retransmit, 0, src, dst, -1));
  System.on_crash sys (fun ~time ~node ~phase ->
      push (time, Ring.k_crash, phase_code phase, node, node, -1));
  log

(* Two observers per channel: the second must always run right after
   the first (the benchmark ledger's open/close pairs rely on this). *)
let check_registration_order sys =
  let pair name register =
    let first_pending = ref false in
    register (fun () ->
        if !first_pending then Alcotest.failf "%s: first observer ran twice" name;
        first_pending := true);
    register (fun () ->
        if not !first_pending then
          Alcotest.failf "%s: second observer ran before the first" name;
        first_pending := false)
  in
  pair "on_message" (fun f -> System.on_message sys (fun ~time:_ ~src:_ ~dst:_ _ -> f ()));
  pair "on_recv" (fun f -> System.on_recv sys (fun ~time:_ ~src:_ ~dst:_ _ -> f ()));
  pair "on_issue" (fun f ->
      System.on_issue sys (fun ~time:_ ~node:_ ~kind:_ ~line:_ -> f ()));
  pair "on_commit" (fun f -> System.on_commit sys (fun _ -> f ()));
  pair "on_retransmit" (fun f ->
      System.on_retransmit sys (fun ~time:_ ~src:_ ~dst:_ -> f ()));
  pair "on_crash" (fun f -> System.on_crash sys (fun ~time:_ ~node:_ ~phase:_ -> f ()))

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

let one_stream ~name ~config ~bench ~expect =
  let desc =
    { Oracle.Trace.bench; config_name = "full"; nodes = 6; scale = 0.1; seed = 3;
      fault = false }
  in
  let programs = Oracle.Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  check_registration_order sys;
  let log = subscribe_all sys in
  let result = System.run_programs ~max_events:30_000_000 sys programs in
  Alcotest.(check bool) (name ^ ": drained") true (result.System.stall = None);
  let seen = List.rev !log in
  (* the ring keeps the last [capacity] events, notes included; the
     subscribers must have seen exactly the non-note part of that
     window as their latest events *)
  let window =
    Ring.events (System.flight sys)
    |> List.filter (fun e -> e.Ring.e_kind <> Ring.k_note)
    |> List.map (fun e ->
           (e.Ring.e_time, e.Ring.e_kind, e.Ring.e_detail, e.Ring.e_src, e.Ring.e_dst,
            e.Ring.e_line))
  in
  Alcotest.(check bool) (name ^ ": window non-empty") true (window <> []);
  let tail = drop (List.length seen - List.length window) seen in
  Alcotest.(check bool) (name ^ ": subscribers match the ring") true (tail = window);
  List.iter
    (fun kind ->
      if not (List.exists (fun (_, k, _, _, _, _) -> k = kind) seen) then
        Alcotest.failf "%s: no %s event observed" name (Ring.kind_name kind))
    expect

let test_one_stream () =
  let full = Config.full ~nodes:6 () in
  one_stream ~name:"adaptive under drops+dups"
    ~config:
      (Config.with_faults full
         { (Fault.storm ~seed:11) with Fault.delay = 0.0; reorder = 0.0 })
    ~bench:"random"
    ~expect:[ Ring.k_send; Ring.k_recv; Ring.k_issue; Ring.k_commit; Ring.k_retransmit ];
  one_stream ~name:"mesi" ~config:(Config.snoop ~nodes:6 Types.Mesi ()) ~bench:"em3d"
    ~expect:[ Ring.k_send; Ring.k_recv; Ring.k_issue; Ring.k_commit ];
  let crashes =
    Fault.crash_schedule ~seed:3 ~nodes:6 ~victims:1 ~window:(3_000, 9_000)
      ~restart_after:5_000 ()
  in
  one_stream ~name:"crash and restart"
    ~config:(Config.with_faults full { Fault.zero with Fault.crashes })
    ~bench:"random" ~expect:[ Ring.k_send; Ring.k_crash ]

let suite =
  [
    QCheck_alcotest.to_alcotest flight_roundtrip;
    Alcotest.test_case "flight ring wrap-around window" `Quick test_ring_wraparound;
    Alcotest.test_case "registry exports: jobs 1 vs 4 byte-identical" `Quick
      test_registry_jobs_determinism;
    Alcotest.test_case "forced stall writes a decodable flight dump" `Quick
      test_stall_dump_wellformed;
    Alcotest.test_case "subscribers see the flight ring's event stream" `Quick
      test_one_stream;
  ]
