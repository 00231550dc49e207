open Pcc_core

type report = {
  desc : Trace.run_desc;
  result : System.result option;
  accesses : int;
  injected : Pcc_interconnect.Fault.stats option;
  violations : string list;
  flight : Flight_ring.dump option;
  diff : Diff.outcome option;
}

(* A failing report carries the machine's flight window, headed by the
   first violation and taken where the run stopped: an online violation
   aborts the simulator, so nothing is recorded after it. *)
let make_report ~sys ~desc ~accesses ?result ?diff violations =
  let flight =
    match violations with
    | [] -> None
    | first :: _ ->
        let config = System.config sys in
        Some
          (Flight_ring.snapshot (System.flight sys) ~reason:first
             ~time:(Pcc_engine.Simulator.now (System.sim sys))
             ~nodes:config.Config.nodes ~config:(Config.describe config))
  in
  { desc; result; accesses; injected = System.fault_stats sys; violations; flight; diff }

(* The value axioms are checked on every backend by the system's memory
   checker, and a flagged commit stops the run online.  The structural
   auditor and the model-checker replay read adaptive internals, so a
   snooping run skips them and keeps the quiescence, commit-count and
   statistics checks. *)
let run ?(diff = true) ?(max_lines = 400) ?max_events ?flight_dump
    (desc : Trace.run_desc) =
  let config = Trace.config_of_desc desc in
  let programs = Trace.programs_of_desc desc in
  let accesses = Pcc_workload.Gen.total_ops programs in
  let sys = System.create ~config () in
  Option.iter (fun path -> System.arm_flight_dump sys ~path) flight_dump;
  let adaptive = config.Config.protocol = Types.Adaptive in
  let audit =
    if adaptive then Some (Audit.attach sys)
    else begin
      Audit.stop_on_value_violation sys;
      None
    end
  in
  let history = if adaptive && diff then Some (Order.attach sys) else None in
  let committed = ref 0 in
  System.on_commit sys (fun _ -> incr committed);
  match System.run_programs ?max_events sys programs with
  | exception Audit.Violation { message; time } ->
      make_report ~sys ~desc ~accesses [ Printf.sprintf "t=%d: %s" time message ]
  | result ->
      let violations = ref [] in
      let add fmt = Printf.ksprintf (fun v -> violations := !violations @ [ v ]) fmt in
      Option.iter
        (fun stall ->
          add "did not quiesce: %s" (Format.asprintf "%a" System.pp_stall_report stall))
        result.System.stall;
      if !committed <> accesses then add "committed %d of %d operations" !committed accesses;
      (try Option.iter Audit.check_all audit
       with Audit.Violation { message; time; _ } -> add "t=%d (final sweep): %s" time message);
      List.iter (add "%s") result.invariant_errors;
      List.iter (add "stats: %s") (Stats_check.check sys result);
      let diff_outcome =
        match history with
        | Some order when !violations = [] ->
            let outcome = Diff.replay ~max_lines ~seed:desc.seed ~sys ~order () in
            violations :=
              List.map
                (fun (d : Diff.divergence) ->
                  Printf.sprintf "diff: line %d@%d: %s"
                    (Types.Layout.index_of_line d.d_line)
                    (Types.Layout.home_of_line d.d_line)
                    d.d_detail)
                outcome.divergences;
            Some outcome
        | Some _ | None -> None
      in
      make_report ~sys ~desc ~accesses ~result ?diff:diff_outcome !violations

let clean report = report.violations = []

let save_artifact ~path report =
  Trace.write ~path ~desc:report.desc ~violations:report.violations
    ~flight:report.flight
