open Pcc_core

type report = {
  desc : Trace.run_desc;
  result : System.result option;
  violations : string list;
  events : Trace.event list;
  diff : Diff.outcome option;
}

(* Backend-agnostic audit layer for the snooping protocols: the
   directory-state auditor and the model-checker replay read adaptive
   internals, so a non-adaptive run keeps the per-address order tracker,
   the memory checker, the quiescence invariants and the statistics
   identities, and skips the adaptive-only passes. *)
let run_generic ~sys ~config:_ ~programs desc =
  let order = Order.create ~keep_history:false () in
  System.on_commit sys (fun ev ->
      match ev.Probe.c_kind with
      | Types.Store ->
          Order.record_store order ~node:ev.Probe.c_node ~line:ev.Probe.c_line
            ~value:ev.Probe.c_value ~time:ev.Probe.c_time
      | Types.Load ->
          Order.record_load order ~node:ev.Probe.c_node ~line:ev.Probe.c_line
            ~value:ev.Probe.c_value ~started:ev.Probe.c_started ~time:ev.Probe.c_time);
  match System.run_programs sys programs with
  | exception Order.Violation message ->
      {
        desc;
        result = None;
        violations = [ "order: " ^ message ];
        events = [];
        diff = None;
      }
  | result ->
      let violations = ref [] in
      if result.System.violations > 0 then
        violations :=
          List.map (fun v -> "memory check: " ^ v) (System.violation_report sys);
      violations := !violations @ result.System.invariant_errors;
      violations :=
        !violations @ List.map (fun v -> "stats: " ^ v) (Stats_check.check sys result);
      { desc; result = Some result; violations = !violations; events = []; diff = None }

let run ?(diff = true) ?(max_lines = 400) (desc : Trace.run_desc) =
  let config = Trace.config_of_desc desc in
  let programs = Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  if config.Config.protocol <> Types.Adaptive then run_generic ~sys ~config ~programs desc
  else
  let audit = Audit.attach sys in
  match System.run_programs sys programs with
  | exception Audit.Violation { message; time; events } ->
      {
        desc;
        result = None;
        violations = [ Printf.sprintf "t=%d: %s" time message ];
        events;
        diff = None;
      }
  | result ->
      let violations = ref [] in
      (try Audit.check_all audit
       with Audit.Violation { message; time; _ } ->
         violations := [ Printf.sprintf "t=%d (final sweep): %s" time message ]);
      if result.System.violations > 0 then
        violations :=
          !violations
          @ List.map
              (fun v -> "memory check: " ^ v)
              (System.violation_report sys);
      violations := !violations @ result.System.invariant_errors;
      violations :=
        !violations
        @ List.map (fun v -> "stats: " ^ v) (Stats_check.check sys result);
      let diff_outcome =
        if diff && !violations = [] then begin
          let outcome =
            Diff.replay ~max_lines ~seed:desc.seed ~sys ~order:(Audit.order audit) ()
          in
          violations :=
            List.map
              (fun (d : Diff.divergence) ->
                Printf.sprintf "diff: line %d@%d: %s"
                  (Types.Layout.index_of_line d.d_line)
                  (Types.Layout.home_of_line d.d_line)
                  d.d_detail)
              outcome.divergences;
          Some outcome
        end
        else None
      in
      {
        desc;
        result = Some result;
        violations = !violations;
        events = (if !violations = [] then [] else Audit.events audit);
        diff = diff_outcome;
      }

let clean report = report.violations = []

let save_artifact ~path report =
  Trace.write ~path ~desc:report.desc ~violations:report.violations
    ~events:report.events
