(* The unreliable-interconnect chaos layer and the recovery machinery
   above it: zero-probability profiles must be invisible, the hub link
   must restore exactly-once in-order delivery under arbitrary packet
   abuse, full chaotic runs must stay coherent with every operation
   committed, and runs that cannot finish must produce a stall report. *)

open Pcc_core
module Fault = Pcc_interconnect.Fault
module Network = Pcc_interconnect.Network
module Topology = Pcc_interconnect.Topology
module Simulator = Pcc_engine.Simulator
module Oracle = Pcc_oracle
module Q = QCheck

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------------- zero-probability equivalence ---------------- *)

let random_stream rand ~nodes ~n =
  List.init n (fun tag ->
      let src = Random.State.int rand nodes in
      let dst = Random.State.int rand nodes in
      let bytes = 16 + Random.State.int rand 160 in
      (src, dst, bytes, tag))

(* Deliver one fixed stream and return everything observable: arrival
   (time, src, dst, tag) in order, plus the traffic counters. *)
let arrivals_of ?faults ~nodes stream =
  let sim = Simulator.create () in
  let topo = Topology.fat_tree ~nodes ~radix:8 in
  let net = Network.create ?faults sim topo Network.default_config in
  let arrivals = ref [] in
  for n = 0 to nodes - 1 do
    Network.set_receiver net ~node:n (fun ~src tag ->
        arrivals := (Simulator.now sim, src, n, tag) :: !arrivals)
  done;
  List.iter (fun (src, dst, bytes, tag) -> Network.send net ~src ~dst ~bytes tag) stream;
  ignore (Simulator.run sim);
  (List.rev !arrivals, Network.messages_sent net, Network.bytes_sent net)

let zero_profile_invisible =
  Q.Test.make ~count:30 ~name:"zero-probability chaos profile is invisible"
    Q.(pair small_int small_int)
    (fun (seed, shape) ->
      let rand = Random.State.make [| seed; shape; 77 |] in
      let nodes = 2 + (shape mod 7) in
      let stream = random_stream rand ~nodes ~n:(10 + (seed mod 40)) in
      arrivals_of ~nodes stream = arrivals_of ~faults:Fault.zero ~nodes stream)

(* ---------------- hub link reliability ---------------- *)

(* Two hubs over a hostile network: every payload must come out exactly
   once, in order, despite drops, duplicates, delays, and reordering. *)
let test_hub_link_exactly_once () =
  let nodes = 2 in
  let sim = Simulator.create () in
  let topo = Topology.fat_tree ~nodes ~radix:8 in
  let net =
    Network.create ~faults:(Fault.storm ~seed:1234) sim topo Network.default_config
  in
  let retransmits = ref 0 and duplicates = ref 0 in
  let received = ref [] in
  let mk id deliver =
    Hub_link.create ~sim ~network:net ~id ~nodes ~reliable:true ~rto:500 ~rto_cap:8000
      ~ack_bytes:16
      ~on_retransmit:(fun ~dst:_ -> incr retransmits)
      ~on_duplicate:(fun () -> incr duplicates)
      ~deliver
  in
  let link0 = mk 0 (fun ~src:_ _ -> ()) in
  let _link1 = mk 1 (fun ~src:_ tag -> received := tag :: !received) in
  for i = 1 to 200 do
    Simulator.schedule sim ~delay:(i * 40) (fun () -> Hub_link.send link0 ~dst:1 ~bytes:48 i)
  done;
  Alcotest.(check bool) "drains" true (Simulator.run sim = Simulator.Drained);
  Alcotest.(check (list int)) "exactly once, in order"
    (List.init 200 (fun i -> i + 1))
    (List.rev !received);
  Alcotest.(check int) "nothing left unacknowledged" 0 (Hub_link.in_flight link0);
  Alcotest.(check bool) "loss forced retransmissions" true (!retransmits > 0)

(* ---------------- end-to-end chaotic runs ---------------- *)

(* A chaotic run through the oracle's one checked-run path.  Runner's
   verdict covers a drained run, every access committed, no value
   violation, the auditor's final sweep, the quiescent invariants and the
   statistics identities; the statistics come back for the
   recovery-counter assertions. *)
let chaos_desc ?(config_name = "full") ?(txn_timeout = 2000) ?(fallback_threshold = 2)
    ?(crashes = []) ~profile ~chaos_seed ~seed bench =
  { Oracle.Trace.bench; config_name; nodes = 6; scale = 0.1; seed; fault = false;
    net = Some { profile; chaos_seed; crashes; txn_timeout; fallback_threshold } }

let checked_run desc =
  let report = Oracle.Runner.run ~diff:false ~max_events:30_000_000 desc in
  Alcotest.(check (list string)) "checked run is clean" [] report.violations;
  let result = Option.get report.result in
  Alcotest.(check bool) "drained" true (result.outcome = Simulator.Drained);
  Alcotest.(check int) "no memory violations" 0 result.violations;
  result.stats

let test_storm_run_stays_coherent () =
  let stats = checked_run (chaos_desc ~profile:"storm" ~chaos_seed:42 ~seed:3 "random") in
  Alcotest.(check bool) "retransmissions happened" true (stats.Run_stats.retransmits > 0);
  Alcotest.(check bool) "duplicates suppressed" true (stats.Run_stats.dup_dropped > 0)

(* Long link outages against a short completion timeout: some line must
   take enough strikes to be demoted to the base protocol, and the run
   must still finish clean.  Workloads are seeded, so scan a few seeds
   deterministically for one where an outage actually hits a live
   transaction. *)
let test_outage_forces_fallback () =
  let rec attempt seed =
    if seed > 6 then Alcotest.fail "no seed in 1..6 exercised the fallback path"
    else
      let stats =
        checked_run
          (chaos_desc ~txn_timeout:1000 ~fallback_threshold:1 ~profile:"outages"
             ~chaos_seed:(seed * 131) ~seed "random")
      in
      if stats.Run_stats.fallbacks > 0 then
        Alcotest.(check bool) "timeouts preceded the fallback" true
          (stats.Run_stats.txn_timeouts > 0)
      else attempt (seed + 1)
  in
  attempt 1

(* An all-zero profile still runs the full hardened machinery (sequence
   numbers, acks, timeouts armed) — the protocol outcome must be as
   clean as a reliable run. *)
let test_zero_profile_run_clean () =
  let stats = checked_run (chaos_desc ~profile:"zero" ~chaos_seed:0 ~seed:5 "random") in
  Alcotest.(check int) "nothing injected, nothing suppressed" 0
    stats.Run_stats.dup_dropped

(* ---------------- stall reports ---------------- *)

(* A checked run cut short by its event budget, on an unhardened machine
   and on a chaotic one: the report fails with the stall report as its
   first violation, and carries the flight window where the run stopped,
   whose newest 64 events are the stall report's recent events. *)
let test_stall_report desc () =
  let report = Oracle.Runner.run ~diff:false ~max_events:300 desc in
  Alcotest.(check bool) "not clean" false (Oracle.Runner.clean report);
  let stall =
    match report.result with
    | Some { stall = Some stall; _ } -> stall
    | _ -> Alcotest.fail "a truncated run must carry a stall report"
  in
  Alcotest.(check bool) "event limit surfaced" true
    (stall.System.stall_outcome = Simulator.Event_limit_reached);
  Alcotest.(check bool) "unfinished processors reported" true
    (stall.System.stall_unfinished > 0);
  let window =
    match report.flight with
    | Some dump -> dump.d_events
    | None -> Alcotest.fail "a failing report carries a flight window"
  in
  let tail = Flight_ring.last 64 window in
  Alcotest.(check int) "64 recent events" 64 (List.length stall.System.stall_recent);
  Alcotest.(check bool) "recent events are the flight ring's tail" true
    (stall.System.stall_recent = tail);
  (* the report is renderable, and it is what the run failed with *)
  let text = Format.asprintf "%a" System.pp_stall_report stall in
  Alcotest.(check (option string)) "the stall is the first violation"
    (Some ("did not quiesce: " ^ text))
    (List.nth_opt report.violations 0);
  Alcotest.(check bool) "report names the outcome" true
    (contains_sub ~sub:"event-limit" text);
  Alcotest.(check bool) "an access went uncommitted" true
    (List.exists (contains_sub ~sub:"committed") report.violations);
  List.iter
    (fun e ->
      let rendered = Format.asprintf "%a" Flight_ring.pp_event e in
      if not (contains_sub ~sub:rendered text) then
        Alcotest.failf "report does not list %S" rendered)
    tail

let suite =
  [
    QCheck_alcotest.to_alcotest zero_profile_invisible;
    Alcotest.test_case "hub link: exactly once, in order" `Quick
      test_hub_link_exactly_once;
    Alcotest.test_case "storm run stays coherent" `Quick test_storm_run_stays_coherent;
    Alcotest.test_case "outages force base-protocol fallback" `Quick
      test_outage_forces_fallback;
    Alcotest.test_case "zero-probability profile runs clean" `Quick
      test_zero_profile_run_clean;
    Alcotest.test_case "stall report on event limit" `Quick
      (test_stall_report
         { Oracle.Trace.bench = "random"; config_name = "full"; nodes = 6; scale = 0.1;
           seed = 4; fault = false; net = None });
    Alcotest.test_case "checked run reports a stall" `Quick
      (test_stall_report (chaos_desc ~profile:"drops" ~chaos_seed:7 ~seed:4 "random"));
  ]
