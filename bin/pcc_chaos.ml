(* Seeded chaos sweeps: run workloads over a deliberately unreliable
   interconnect — packets dropped, duplicated, delayed, reordered, links
   taken down transiently, and with --crash/--crash-nodes whole nodes
   fail-stopped and restarted cold — with the online coherence oracle
   attached.  Each cell is one Oracle.Runner.run over a descriptor whose
   network part pins the fault layer, so a cell passes exactly when the
   checked-run path finds nothing: quiesced, every operation committed,
   zero oracle violations.  The sweep also fails if the recovery
   machinery was never exercised.

   Cells fan out across domains (--jobs N / PCC_JOBS; 1 = sequential);
   the main domain prints the reports in submission order, so output and
   the --json artifact are bit-identical at every jobs level.

     dune exec bin/pcc_chaos.exe -- --seeds 34
     dune exec bin/pcc_chaos.exe -- --profile storm --seeds 5 --verbose
     dune exec bin/pcc_chaos.exe -- --crash 1 --seeds 12
     dune exec bin/pcc_chaos.exe -- --crash-nodes 1,3 --restart-after 8000 *)

open Cmdliner
open Pcc

(* Per-run counters, in the order each group appears in the --json
   artifact; a run the oracle aborted has no statistics (zeros). *)
let stat get (r : Oracle.Runner.report) =
  Option.fold r.result ~none:0 ~some:(fun result -> get result.System.stats)

let injected get (r : Oracle.Runner.report) = Option.fold r.injected ~none:0 ~some:get

let recovery_counters =
  [
    ("retransmits", stat (fun s -> s.Run_stats.retransmits));
    ("dup_dropped", stat (fun s -> s.Run_stats.dup_dropped));
    ("txn_timeouts", stat (fun s -> s.Run_stats.txn_timeouts));
    ("fallbacks", stat (fun s -> s.Run_stats.fallbacks));
  ]

let injected_counters =
  [
    ("injected_drops", injected (fun f -> f.Fault.dropped));
    ("injected_dups", injected (fun f -> f.Fault.duplicated));
    ("injected_delays", injected (fun f -> f.Fault.delayed));
    ("injected_outages", injected (fun f -> f.Fault.outages_started));
  ]

let crash_counters =
  [
    ("crashes", stat (fun s -> s.Run_stats.crashes));
    ("restarts", stat (fun s -> s.Run_stats.restarts));
    ("crash_revoked", stat (fun s -> s.Run_stats.crash_revoked));
  ]

(* Fail-stop schedule for one run, derived purely from the run's own
   identity so crash sweeps stay bit-identical across pool widths.
   [crash_nodes], when non-empty, pins the victims (the seeded schedule
   still picks the crash times); otherwise [crash_victims] seeded nodes
   die.  The window sits inside a default-scale run so crashes land
   mid-traffic, and every victim restarts — a sweep must quiesce. *)
let crash_schedule_for ~chaos_seed ~nodes ~crash_victims ~crash_nodes ~restart_after =
  let victims = if crash_nodes = [] then crash_victims else List.length crash_nodes in
  let sched =
    Fault.crash_schedule ~seed:chaos_seed ~nodes ~victims ~window:(3_000, 12_000)
      ~restart_after ()
  in
  match crash_nodes with
  | [] -> sched
  | explicit -> List.map2 (fun (c : Fault.crash) victim -> { c with victim }) sched explicit

let profile_of (desc : Oracle.Trace.run_desc) = (Option.get desc.net).profile

(* Deterministic per-run artifact path: a function of the run's own
   identity, so parallel workers never collide and reruns overwrite. *)
let flight_dump_of ~flight_dir (desc : Oracle.Trace.run_desc) =
  Option.map
    (fun dir ->
      Filename.concat dir
        (Printf.sprintf "seed%d-%s-%s.flight.json" desc.seed (profile_of desc) desc.bench))
    flight_dir

(* The sweep's machine is the full one; --protocol swaps in a snooping
   backend on the same base parameters.  Artifacts record it as "full". *)
let config_label = "full"

let print_report ~verbose ~flight_dir (r : Oracle.Runner.report) =
  let d = r.desc in
  match r.violations with
  | [] ->
      if verbose then
        Printf.printf "ok   seed=%d profile=%-7s bench=%-6s config=%s (%d ops)\n%!" d.seed
          (profile_of d) d.bench config_label r.accesses
  | problems ->
      Printf.printf "FAIL seed=%d profile=%s bench=%s config=%s\n" d.seed (profile_of d)
        d.bench config_label;
      List.iter (fun p -> Printf.printf "  %s\n%!" p) problems;
      Option.iter
        (fun path ->
          Printf.printf "  post-mortem: %s (decode with pcc_trace --flight %s)\n%!" path
            path)
        (flight_dump_of ~flight_dir d)

let json_of_report ~flight_dir (r : Oracle.Runner.report) =
  let d = r.desc in
  let counters = recovery_counters @ injected_counters @ crash_counters in
  Jsonl.Obj
    ([
       ("seed", Jsonl.Int d.seed);
       ("profile", Jsonl.String (profile_of d));
       ("bench", Jsonl.String d.bench);
       ("workload", Jsonl.String (Workload.describe (Oracle.Trace.workload_of_desc d)));
       ("config", Jsonl.String config_label);
       ("total_ops", Jsonl.Int r.accesses);
       ("problems", Jsonl.List (List.map (fun p -> Jsonl.String p) r.violations));
     ]
    @ List.map (fun (key, get) -> (key, Jsonl.Int (get r))) counters
    @ [
        ( "flight_dump",
          Option.fold (flight_dump_of ~flight_dir d) ~none:Jsonl.Null ~some:(fun p ->
              Jsonl.String p) );
      ])

let main workload_pin seeds protocol nodes scale profile_filter txn_timeout
    fallback_threshold max_events jobs json_path verbose crash_victims crash_nodes
    restart_after flight_dir metrics_path =
  Cli_common.check_workload_pin ~tool:"pcc_chaos" ~nodes ~scale workload_pin;
  let crash_mode = crash_victims > 0 || crash_nodes <> [] in
  let usage_errors =
    [
      ( Option.fold profile_filter ~none:false ~some:(fun name ->
            not (List.mem_assoc name Fault.presets)),
        Printf.sprintf "unknown fault profile %S (known: %s)"
          (Option.value profile_filter ~default:"")
          (String.concat ", " (List.map fst Fault.presets)) );
      ( protocol <> Types.Adaptive && crash_mode,
        Printf.sprintf "fail-stop crashes need the adaptive backend (--protocol %s given)"
          (Protocol.to_string protocol) );
      ( crash_victims < 0 || crash_victims > nodes - 1,
        Printf.sprintf "--crash must be in [0, nodes-1] (got %d)" crash_victims );
      (* a sweep's pass criterion is full quiescence with every operation
         committed; a victim that never returns cannot satisfy it, so
         permanent death stays in the test suite, not the sweep *)
      ( restart_after <= 0,
        Printf.sprintf "--restart-after must be positive (got %d)" restart_after );
      ( List.exists (fun v -> v < 0 || v >= nodes) crash_nodes
        || List.length (List.sort_uniq compare crash_nodes) <> List.length crash_nodes
        || List.length crash_nodes > nodes - 1,
        Printf.sprintf
          "--crash-nodes must list distinct nodes in [0, %d], leaving at least one \
           survivor"
          (nodes - 1) );
    ]
  in
  match List.find_opt fst usage_errors with
  | Some (_, message) ->
      Printf.eprintf "pcc_chaos: %s\n" message;
      2
  | None ->
      let flight_dir =
        match flight_dir with
        | "none" -> None
        | dir -> Some (Cli_common.check_output ~dir:true ~flag:"--flight-dir" dir)
      in
      let profiles =
        match profile_filter with
        | Some name -> [ name ]
        | None -> List.map fst Fault.presets
      in
      let config_name =
        if protocol = Types.Adaptive then "full" else Protocol.to_string protocol
      in
      let desc_for ~seed ~profile bench =
        (* independent chaos stream per (seed, profile, bench): the
           workload RNG stays pinned by [seed] alone, so the same traffic
           meets different fault schedules *)
        let chaos_seed = (seed * 8191) + Hashtbl.hash (profile, bench) in
        let crashes =
          crash_schedule_for ~chaos_seed ~nodes ~crash_victims ~crash_nodes
            ~restart_after
        in
        { Oracle.Trace.bench; config_name; nodes; scale; seed; fault = false;
          net = Some { profile; chaos_seed; crashes; txn_timeout; fallback_threshold } }
      in
      (* Same nesting as the sequential loops ever had: seed, profile,
         bench — the submission order is the print order. *)
      let descs =
        List.concat_map
          (fun seed ->
            List.concat_map
              (fun profile ->
                List.map (desc_for ~seed ~profile)
                  (Cli_common.sweep_benches ~workload_pin seed))
              profiles)
          (List.init seeds (fun i -> i + 1))
      in
      let reports =
        Pool.map_keyed ~jobs
          ~key:(fun (d : Oracle.Trace.run_desc) ->
            Printf.sprintf "seed=%d/%s/%s" d.seed (profile_of d) d.bench)
          (fun desc ->
            Oracle.Runner.run ~diff:false ~max_events
              ?flight_dump:(flight_dump_of ~flight_dir desc)
              desc)
          descs
      in
      List.iter (print_report ~verbose ~flight_dir) reports;
      let sum (key, get) = (key, List.fold_left (fun acc r -> acc + get r) 0 reports) in
      let failures = List.length (List.filter (Fun.negate Oracle.Runner.clean) reports) in
      (* the sweep's own tally (pcc_chaos_* metrics), then what the
         machine recovered (pcc_* metrics, shared with the other tools) *)
      let sweep_tally =
        ("runs", List.length reports) :: ("failures", failures)
        :: List.map sum injected_counters
      in
      let recovered = List.map sum (recovery_counters @ crash_counters) in
      let total key = List.assoc key (sweep_tally @ recovered) in
      Printf.printf
        "%d chaotic runs, %d failures\n\
         injected: %d drops, %d duplicates, %d delays, %d outages\n\
         recovered: %d retransmits, %d duplicates dropped, %d txn timeouts, %d fallbacks\n"
        (total "runs") failures (total "injected_drops") (total "injected_dups")
        (total "injected_delays") (total "injected_outages") (total "retransmits")
        (total "dup_dropped") (total "txn_timeouts") (total "fallbacks");
      if crash_mode then
        Printf.printf "crashed: %d fail-stops, %d restarts, %d delegations revoked\n"
          (total "crashes") (total "restarts") (total "crash_revoked");
      let ints = List.map (fun (key, n) -> (key, Jsonl.Int n)) in
      Option.iter
        (fun path ->
          Atomic_file.write_string ~path
            (Jsonl.to_string
               (Jsonl.Obj
                  [
                    ("runs", Jsonl.List (List.map (json_of_report ~flight_dir) reports));
                    ("tally", Jsonl.Obj (ints sweep_tally @ ints recovered));
                  ])
            ^ "\n"))
        json_path;
      Cli_common.write_metrics metrics_path (fun registry ->
          let counter prefix (key, n) = Telemetry.Registry.counter registry (prefix ^ key) n in
          List.iter (counter "pcc_chaos_") sweep_tally;
          List.iter (counter "pcc_") recovered);
      if failures > 0 then 1
      else if total "retransmits" = 0 || total "dup_dropped" = 0 then begin
        (* a sweep that never had to recover proves nothing *)
        Printf.printf "SWEEP TOO QUIET: recovery machinery never exercised\n";
        1
      end
      else if crash_mode && total "crashes" = 0 then begin
        Printf.printf "SWEEP TOO QUIET: crash mode on but no node ever fail-stopped\n";
        1
      end
      else 0

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"NAME"
        ~doc:"Run a single fault profile (drops, storm, outages) instead of all.")

let txn_timeout_arg =
  Arg.(
    value & opt int 2000
    & info [ "txn-timeout" ] ~docv:"CYCLES"
        ~doc:"Initial per-transaction completion timeout.")

let fallback_arg =
  Arg.(
    value & opt int 2
    & info [ "fallback-threshold" ] ~docv:"N"
        ~doc:"Timeout strikes before a line falls back to the base protocol.")

let crash_arg =
  Arg.(
    value & opt int 0
    & info [ "crash" ] ~docv:"N"
        ~doc:
          "Fail-stop $(docv) seeded victim nodes per run (0 disables; at least \
           one node always survives).  Victims lose all volatile state, are \
           detected and recovered from by the directory, and restart cold.")

let crash_nodes_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "crash-nodes" ] ~docv:"IDS"
        ~doc:
          "Comma-separated victim nodes (e.g. 1,3) to crash instead of seeded \
           picks; crash times stay seeded.  Overrides $(b,--crash).")

let restart_after_arg =
  Arg.(
    value & opt int 5_000
    & info [ "restart-after" ] ~docv:"CYCLES"
        ~doc:
          "Cycles between a victim's fail-stop and its cold restart.  Must be \
           positive: a sweep's pass criterion needs every victim back to \
           commit its remaining operations.")

let flight_dir_arg =
  Arg.(
    value & opt string "flight-dumps"
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for flight-recorder post-mortems (created if missing; \
           $(b,none) disables arming).  Every run arms a deterministic \
           per-run dump path there; on a stall, crash or oracle violation \
           the retained event window lands at that path and the failure \
           report names it (decode with $(b,pcc_trace --flight)).")

let cmd =
  let term =
    Term.(
      const main
      $ Cli_common.workload_pin ~what:"chaotic run" ()
      $ Cli_common.seeds ~default:34
          ~doc:"Seeds per fault profile (each seed runs 2 benchmarks)." ()
      $ Cli_common.protocol ()
      $ Cli_common.nodes ~default:6 ()
      $ Cli_common.scale ~default:0.15 ~doc:"Run-length scale for app benchmarks." ()
      $ profile_arg $ txn_timeout_arg $ fallback_arg
      $ Cli_common.max_events ()
      $ Cli_common.jobs ~what:"chaotic runs" ()
      $ Cli_common.json
          ~doc:"Write machine-readable per-run reports and the final tally to $(docv)."
          ()
      $ Cli_common.verbose ~doc:"Print each passing run." ()
      $ crash_arg $ crash_nodes_arg $ restart_after_arg $ flight_dir_arg
      $ Cli_common.metrics ())
  in
  Cmd.v
    (Cmd.info "pcc_chaos"
       ~doc:
         "Seeded chaos sweeps: coherence under an unreliable interconnect — and \
          under scheduled fail-stop node crashes — with the online oracle attached")
    term

let () = exit (Cmd.eval' cmd)
