(* The oracle subsystem's own tests: the JSONL codec and trace artifacts
   round-trip, the per-location checker accepts legal histories and
   rejects illegal ones, the commit history linearizes, the online auditor catches the injected protocol fault,
   and — the headline property — oracle-checked runs of every benchmark
   come back clean, including the differential replay against the model
   checker. *)

open Pcc_core
module Oracle = Pcc_oracle
module Fault = Pcc_interconnect.Fault
module Jsonl = Pcc_stats.Jsonl
module Q = QCheck

let line ~home ~index = Types.Layout.make_line ~home ~index

(* ---------------- JSONL codec ---------------- *)

let json_gen =
  let open Q.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Jsonl.Null;
            map (fun b -> Jsonl.Bool b) bool;
            map (fun i -> Jsonl.Int i) small_signed_int;
            map (fun f -> Jsonl.Float (float_of_int f)) small_signed_int;
            map (fun s -> Jsonl.String s) string_printable;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun l -> Jsonl.List l) (list_size (0 -- 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Jsonl.Obj kvs)
                (list_size (0 -- 4)
                   (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 6)) (self (n / 2))))
            );
          ])

let prop_jsonl_roundtrip =
  Q.Test.make ~count:300 ~name:"jsonl: to_string |> of_string is the identity"
    (Q.make json_gen)
    (fun v ->
      match Jsonl.of_string (Jsonl.to_string v) with
      | Ok v' -> v = v'
      | Error e -> Q.Test.fail_reportf "parse error: %s" e)

(* ---------------- trace artifacts ---------------- *)

let test_trace_roundtrip () =
  let desc =
    { Oracle.Trace.bench = "em3d"; config_name = "full"; nodes = 6; scale = 0.25;
      seed = 17; fault = true; net = None }
  in
  let ring = Flight_ring.create ~capacity:4 () in
  Flight_ring.record ring ~time:3 ~kind:Flight_ring.k_send ~detail:4 ~src:1 ~dst:2
    ~line:(line ~home:2 ~index:5) ~arg:0;
  Flight_ring.record ring ~time:9 ~kind:Flight_ring.k_commit ~detail:1 ~src:4 ~dst:4
    ~line:(line ~home:0 ~index:1) ~arg:42;
  let flight = Flight_ring.snapshot ring ~reason:"boom" ~time:9 ~nodes:6 ~config:"cfg" in
  let path = Filename.temp_file "pcc-oracle" ".jsonl" in
  Oracle.Trace.write ~path ~desc ~violations:[ "boom" ] ~flight:(Some flight);
  let reread = Oracle.Trace.read_desc ~path in
  let window = Pcc_telemetry.Flight.load path in
  Sys.remove path;
  (match reread with
  | Ok desc' -> Alcotest.(check bool) "descriptor round-trips" true (desc = desc')
  | Error e -> Alcotest.failf "read_desc: %s" e);
  match window with
  | Ok d -> Alcotest.(check bool) "flight window round-trips" true (d = flight)
  | Error e -> Alcotest.failf "Flight.load: %s" e

(* The network part pins a chaos run: it must survive the artifact, and
   a descriptor without one keeps the header the format always had (the
   one [pcc_oracle --inject-fault] writes, byte for byte), so old
   artifacts still parse. *)
let test_trace_net_roundtrip () =
  let old_header =
    {|{"kind":"run","bench":"random","config":"full","nodes":6,"scale":0.14999999999999999,"seed":2,"fault":true}|}
  in
  let plain =
    { Oracle.Trace.bench = "random"; config_name = "full"; nodes = 6; scale = 0.15;
      seed = 2; fault = true; net = None }
  in
  let crashes =
    [ { Fault.victim = 1; crash_at = 4_000; restart_after = Some 8_000 };
      { Fault.victim = 3; crash_at = 5_500; restart_after = None } ]
  in
  let chaotic =
    { plain with
      fault = false;
      net = Some { profile = "storm"; chaos_seed = 8_191; crashes; txn_timeout = 2_000;
                   fallback_threshold = 2 } }
  in
  let path = Filename.temp_file "pcc-oracle" ".jsonl" in
  let write_read desc =
    Oracle.Trace.write ~path ~desc ~violations:[] ~flight:None;
    (In_channel.with_open_text path In_channel.input_line, Oracle.Trace.read_desc ~path)
  in
  let chaotic_header, chaotic' = write_read chaotic in
  let plain_header, _ = write_read plain in
  Out_channel.with_open_text path (fun oc -> output_string oc (old_header ^ "\n"));
  let old = Oracle.Trace.read_desc ~path in
  Sys.remove path;
  Alcotest.(check bool) "network part round-trips" true (chaotic' = Ok chaotic);
  Alcotest.(check bool) "header names the network part" true
    (Astring_contains.contains (Option.get chaotic_header) {|"net":{"profile":"storm"|});
  Alcotest.(check (option string)) "header without it is unchanged" (Some old_header)
    plain_header;
  Alcotest.(check bool) "an old header still parses" true (old = Ok plain)

(* ---------------- per-location coherence checker ---------------- *)

(* The per-location SC axioms live in [Memory_check] alone.  Each row is
   one history on one line; every step says whether the checker must
   accept it (no new violation) or flag it (exactly one). *)
type step =
  | St of { node : int; value : int; time : int }
  | Ld of { node : int; value : int; started : int; time : int }
  | Crash of { dead : int; surviving : int }

let ok step = (step, true)

let bad step = (step, false)

let memcheck_cases =
  [
    ( "order: accepts a legal history",
      [
        ok (Ld { node = 2; value = 0; started = 1; time = 5 });
        ok (St { node = 1; value = 10; time = 10 });
        ok (Ld { node = 2; value = 10; started = 12; time = 15 });
        ok (St { node = 1; value = 20; time = 20 });
        (* started before the second store committed: still a legal window *)
        ok (Ld { node = 3; value = 10; started = 18; time = 25 });
        ok (Ld { node = 2; value = 20; started = 21; time = 26 });
      ] );
    ( "order: rejects a stale read",
      [
        ok (St { node = 0; value = 7; time = 10 });
        ok (St { node = 0; value = 9; time = 20 });
        (* started after version 9 committed, yet returned version 7 *)
        bad (Ld { node = 2; value = 7; started = 30; time = 35 });
      ] );
    (* coRR: legal window on its own (started before store 6), but node 3
       already observed the newer version *)
    ( "order: rejects non-monotone observation",
      [
        ok (St { node = 0; value = 5; time = 10 });
        ok (St { node = 0; value = 6; time = 20 });
        ok (Ld { node = 3; value = 6; started = 25; time = 30 });
        bad (Ld { node = 3; value = 5; started = 5; time = 40 });
      ] );
    ( "order: rejects coWR: a read older than its own store",
      [
        ok (St { node = 2; value = 5; time = 10 });
        ok (St { node = 1; value = 6; time = 20 });
        bad (Ld { node = 1; value = 5; started = 5; time = 30 });
      ] );
    ( "order: rejects coWW: a store below the newest version",
      [ ok (St { node = 1; value = 5; time = 10 }); bad (St { node = 2; value = 4; time = 20 }) ]
    );
    ( "order: rejects an unknown value",
      [
        ok (St { node = 1; value = 3; time = 10 });
        bad (Ld { node = 2; value = 4; started = 11; time = 12 });
      ] );
    ( "order: rejects the initial value after the first store",
      [
        ok (Ld { node = 2; value = 0; started = 1; time = 5 });
        ok (St { node = 1; value = 3; time = 10 });
        bad (Ld { node = 3; value = 0; started = 11; time = 12 });
      ] );
    (* the victim overwrote the line more times than the 32-store window
       holds: the roll-back empties the window, and the surviving value
       becomes the line's baseline *)
    ( "order: forgives a rollback deeper than the window",
      (ok (St { node = 1; value = 10; time = 100 })
      :: List.init 40 (fun i -> ok (St { node = 2; value = 11 + i; time = 200 + i })))
      @ [
          ok (Crash { dead = 2; surviving = 10 });
          ok (Ld { node = 0; value = 10; started = 300; time = 350 });
          bad (Ld { node = 0; value = 30; started = 360; time = 370 });
        ] );
    (* a survivor's store above the surviving value is never expunged *)
    ( "order: keeps a survivor's store across a crash",
      [
        ok (St { node = 1; value = 10; time = 100 });
        ok (St { node = 3; value = 20; time = 200 });
        ok (Crash { dead = 2; surviving = 10 });
        ok (Ld { node = 0; value = 20; started = 300; time = 350 });
        bad (Ld { node = 1; value = 10; started = 300; time = 360 });
      ] );
  ]

let run_memcheck_case steps () =
  let m = Memory_check.create ~nodes:4 in
  let l = line ~home:1 ~index:3 in
  List.iteri
    (fun i (step, legal) ->
      let before = Memory_check.violations m in
      (match step with
      | St { node; value; time } -> Memory_check.store_committed m ~node l ~value ~time
      | Ld { node; value; started; time } ->
          ignore (Memory_check.load_committed m ~node l ~value ~started ~time)
      | Crash { dead; surviving } ->
          Memory_check.crash_forget m ~dead ~surviving:(fun _ -> surviving));
      Alcotest.(check int)
        (Printf.sprintf "step %d %s" i (if legal then "accepted" else "flagged"))
        (if legal then before else before + 1)
        (Memory_check.violations m))
    steps;
  Alcotest.(check int) "one report per violation"
    (Memory_check.violations m)
    (List.length (Memory_check.violation_report m))

(* ---------------- commit history ---------------- *)

let test_order_linearizes () =
  let o = Oracle.Order.create () in
  let l = line ~home:0 ~index:0 in
  Oracle.Order.record_load o ~node:2 ~line:l ~value:0 ~time:5;
  Oracle.Order.record_store o ~node:1 ~line:l ~value:10 ~time:10;
  Oracle.Order.record_load o ~node:2 ~line:l ~value:10 ~time:15;
  Oracle.Order.record_store o ~node:1 ~line:l ~value:20 ~time:20;
  Oracle.Order.record_load o ~node:3 ~line:l ~value:10 ~time:25;
  Oracle.Order.record_load o ~node:2 ~line:l ~value:20 ~time:26;
  Alcotest.(check int) "stores counted" 2 (Oracle.Order.store_count o l);
  Alcotest.(check int) "last store" 20 (Oracle.Order.last_store o l);
  match Oracle.Order.linearize o with
  | [ (l', ops) ] ->
      Alcotest.(check bool) "same line" true (l = l');
      let shape =
        List.map
          (function
            | Oracle.Order.O_store { value; _ } -> `S value
            | Oracle.Order.O_load { value; _ } -> `L value)
          ops
      in
      Alcotest.(check bool) "serial shape" true
        (shape = [ `L 0; `S 10; `L 10; `L 10; `S 20; `L 20 ])
  | other -> Alcotest.failf "expected one line, got %d" (List.length other)

(* The probe checks each commit before any observer sees it, so the
   auditor stops a run at the very commit the checker flags, on either
   backend.  Planted faults provide the violations: on MSI, snoopers that
   ignore upgrades; on the adaptive machine, pushed consumers left out of
   the producer's sharing vector (a few seeds until a stale copy is
   read). *)
let stops_at_flagged_commit ~config programs =
  let sys = System.create ~config () in
  Oracle.Audit.stop_on_value_violation sys;
  match System.run_programs sys programs with
  | _ -> false
  | exception Oracle.Audit.Violation { time; message } ->
      Alcotest.(check int) "stopped at the first violation" 1 (System.violations sys);
      Alcotest.(check (list string)) "message is the checker's report"
        (System.violation_report sys) [ message ];
      (match Flight_ring.last 1 (Flight_ring.events (System.flight sys)) with
      | [ e ] ->
          Alcotest.(check bool) "newest event is that commit" true
            (e.Flight_ring.e_kind = Flight_ring.k_commit && e.e_time = time)
      | _ -> Alcotest.fail "empty flight ring");
      true

let test_value_violation_stops_run () =
  List.iter
    (fun (config_name, fault) ->
      let stops seed =
        let desc =
          { Oracle.Trace.bench = "random"; config_name; nodes = 6; scale = 0.15; seed;
            fault = false; net = None }
        in
        let config = { (Oracle.Trace.config_of_desc desc) with Config.inject_fault = Some fault } in
        stops_at_flagged_commit ~config (Oracle.Trace.programs_of_desc desc)
      in
      if not (List.exists stops (List.init 10 succ)) then
        Alcotest.failf "%s: planted fault never flagged in 10 seeds" config_name)
    [ ("full", Config.Stale_update_no_resharing); ("msi", Config.Snoop_upgr_skips_invals) ]

(* ---------------- fault injection ---------------- *)

let test_fault_is_caught () =
  (* not every seed's workload pushes an update into the corrupted
     window, so scan a few; the oracle must catch at least one, and the
     artifact it writes must replay *)
  let caught = ref None in
  let seed = ref 1 in
  while !caught = None && !seed <= 10 do
    let desc =
      { Oracle.Trace.bench = "random"; config_name = "full"; nodes = 6; scale = 0.15;
        seed = !seed; fault = true; net = None }
    in
    let report = Oracle.Runner.run ~diff:false desc in
    if not (Oracle.Runner.clean report) then caught := Some report;
    incr seed
  done;
  match !caught with
  | None -> Alcotest.fail "injected stale-update fault never caught in 10 seeds"
  | Some report ->
      Alcotest.(check bool) "the run aborted online" true (report.result = None);
      let violation_time =
        match report.violations with
        | v :: _ -> Scanf.sscanf v "t=%d:" Fun.id
        | [] -> Alcotest.fail "no violation message"
      in
      let path = Filename.temp_file "pcc-oracle-fault" ".jsonl" in
      Oracle.Runner.save_artifact ~path report;
      let reread = Oracle.Trace.read_desc ~path in
      let window = Pcc_telemetry.Flight.load path in
      Sys.remove path;
      (match reread with
      | Ok desc -> Alcotest.(check bool) "artifact records the fault" true desc.fault
      | Error e -> Alcotest.failf "artifact unreadable: %s" e);
      match window with
      | Error e -> Alcotest.failf "artifact's flight window unreadable: %s" e
      | Ok d -> (
          match List.rev d.Flight_ring.d_events with
          | [] -> Alcotest.fail "empty flight window"
          | newest :: _ ->
              Alcotest.(check bool) "window ends at or before the violation" true
                (newest.Flight_ring.e_time <= violation_time))

let test_fault_free_config_ignores_flag () =
  (* the same workload under the baseline machine has no update path, so
     the fault flag must be inert there *)
  let desc =
    { Oracle.Trace.bench = "random"; config_name = "base"; nodes = 6; scale = 0.15;
      seed = 2; fault = true; net = None }
  in
  let report = Oracle.Runner.run ~diff:false desc in
  Alcotest.(check bool) "clean" true (Oracle.Runner.clean report)

(* ---------------- oracle-checked runs come back clean ---------------- *)

let clean_run desc =
  let report = Oracle.Runner.run ~max_lines:150 desc in
  if not (Oracle.Runner.clean report) then
    Alcotest.failf "%s/%s seed=%d: %s" desc.Oracle.Trace.bench
      desc.Oracle.Trace.config_name desc.Oracle.Trace.seed
      (String.concat "; " report.violations);
  match report.diff with
  | Some o ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s replayed something" desc.bench desc.config_name)
        true
        (o.Oracle.Diff.ops_replayed > 0)
  | None -> Alcotest.fail "differential replay did not run"

let test_all_benchmarks_clean () =
  let seed = 1 + (Test_seed.value mod 1000) in
  List.iter
    (fun (app : Pcc_workload.Apps.app) ->
      List.iter
        (fun config_name ->
          clean_run
            { Oracle.Trace.bench = app.name; config_name; nodes = 6; scale = 0.1;
              seed; fault = false; net = None })
        [ "base"; "full" ])
    Pcc_workload.Apps.all

let prop_random_runs_clean =
  Q.Test.make ~count:8 ~name:"oracle: seeded random runs are clean and convergent"
    Q.(pair small_int small_int)
    (fun (s, shape) ->
      let desc =
        { Oracle.Trace.bench = "random"; config_name = (if shape mod 2 = 0 then "full" else "rac");
          nodes = 4 + (shape mod 3); scale = 0.1; seed = 1 + s; fault = false; net = None }
      in
      let report = Oracle.Runner.run ~max_lines:150 desc in
      if not (Oracle.Runner.clean report) then
        Q.Test.fail_reportf "seed %d: %s" desc.seed
          (String.concat "; " report.violations);
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
    Alcotest.test_case "trace artifact round-trips" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace network part round-trips" `Quick test_trace_net_roundtrip;
  ]
  @ List.map
      (fun (name, steps) -> Alcotest.test_case name `Quick (run_memcheck_case steps))
      memcheck_cases
  @ [
    Alcotest.test_case "order: linearizes a legal history" `Quick test_order_linearizes;
    Alcotest.test_case "value violation stops the run" `Quick test_value_violation_stops_run;
    Alcotest.test_case "audit catches the injected fault" `Quick test_fault_is_caught;
    Alcotest.test_case "fault flag inert without updates" `Quick
      test_fault_free_config_ignores_flag;
    Alcotest.test_case "all benchmarks clean under the oracle" `Slow
      test_all_benchmarks_clean;
    QCheck_alcotest.to_alcotest prop_random_runs_clean;
  ]
