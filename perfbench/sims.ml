(* Simulation cells: one machine configuration fed one workload.  A
   cell runs untraced (the timed passes) or under a {!Ledger}, and
   every run is checked: it must drain with every operation committed,
   no memory-check violations, no invariant errors and, when audited, a
   clean online audit. *)

open Pcc

type cell = {
  label : string;  (* "<workload>/<config>", the digest's row key *)
  config : Config.t;
  feed : unit -> Op_stream.t;  (* a fresh feed per run *)
  accesses : int;  (* loads + stores the feed holds *)
  audited : bool;  (* attach Oracle.Audit and Telemetry.Recorder *)
}

(* What one run of a cell reports. *)
type run = {
  cell : cell;
  result : System.result option;  (* [None] when the run raised *)
  problems : string list;  (* empty = the run is correct *)
  ops : int;  (* committed loads + stores *)
  events : int;
  peak_pending : int;
  cpu_s : float;  (* host time of System.create + run_stream *)
  wall_s : float;  (* the same span on the wall clock, for the summary *)
  minor_words : float;  (* allocated over the same span *)
}

(* The simulated results a cell's run is checked on. *)
let row (res : System.result) =
  Printf.sprintf "cycles=%d msgs=%d bytes=%d delegations=%d updates=%d" res.System.cycles res.System.network_messages
        res.System.network_bytes res.System.stats.Run_stats.delegations
        res.System.stats.Run_stats.updates_sent

let problems_of cell audit (res : System.result) =
  let p = ref [] in
  let add fmt = Printf.ksprintf (fun s -> p := (cell.label ^ ": " ^ s) :: !p) fmt in
  if res.System.stall <> None || res.outcome <> Simulator.Drained then
    add "did not drain (%s)" (Format.asprintf "%a" Simulator.pp_outcome res.outcome);
  let ops = res.stats.Run_stats.loads + res.stats.Run_stats.stores in
  if ops <> cell.accesses then add "committed %d of %d operations" ops cell.accesses;
  if res.violations > 0 then add "%d memory-check violations" res.violations;
  (match res.invariant_errors with
  | [] -> ()
  | e :: _ as errs -> add "%d invariant errors (first: %s)" (List.length errs) e);
  (match audit with
  | None -> ()
  | Some a -> (
      try Oracle.Audit.check_all a
      with Oracle.Audit.Violation { message; time; _ } ->
        add "audit violation at t=%d: %s" time message));
  List.rev !p

(* Run one cell.  With a ledger, its hooks go around the observers as
   described in {!Ledger}, and the feed is wrapped. *)
let run ?ledger cell =
  let feed = cell.feed () in
  let feed = match ledger with Some l -> Ledger.wrap_feed l feed | None -> feed in
  let minor0 = Gc.minor_words () in
  let cpu0 = Hostclock.cpu_s () and wall0 = Hostclock.wall_s () in
  let sys = System.create ~config:cell.config () in
  Option.iter (fun l -> Ledger.attach_head l sys) ledger;
  let observe which attach =
    match ledger with Some l -> Ledger.bracket l (which l) sys attach | None -> attach sys
  in
  let audit =
    if not cell.audited then None
    else begin
      let a = observe (fun l -> l.Ledger.audit) Oracle.Audit.attach in
      observe (fun l -> l.Ledger.recorder) (fun sys -> ignore (Telemetry.Recorder.attach sys));
      Some a
    end
  in
  Option.iter (fun l -> Ledger.attach_tail l sys) ledger;
  let t0 = Hostclock.ns () in
  Option.iter Ledger.start ledger;
  let outcome =
    match System.run_stream sys feed with
    | res -> Ok res
    | exception Oracle.Audit.Violation { message; time; _ } ->
        Error (Printf.sprintf "%s: audit violation at t=%d: %s" cell.label time message)
    | exception e -> Error (Printf.sprintf "%s: %s" cell.label (Printexc.to_string e))
  in
  Option.iter (fun l -> Ledger.stop l ~t0) ledger;
  let cpu_s = Hostclock.cpu_s () -. cpu0 and wall_s = Hostclock.wall_s () -. wall0 in
  let minor_words = Gc.minor_words () -. minor0 in
  let result, problems, ops =
    match outcome with
    | Ok res ->
        (Some res, problems_of cell audit res, res.stats.Run_stats.loads + res.stats.Run_stats.stores)
    | Error msg -> (None, [ msg ], 0)
  in
  let sim = System.sim sys in
  {
    cell;
    result;
    problems;
    ops;
    events = Simulator.events_executed sim;
    peak_pending = Simulator.peak_pending sim;
    cpu_s;
    wall_s;
    minor_words;
  }

let count_accesses programs =
  Array.fold_left
    (fun acc ops ->
      List.fold_left
        (fun acc -> function Types.Access _ -> acc + 1 | Types.Compute _ | Types.Barrier _ -> acc)
        acc ops)
    0 programs

let of_programs ~label ~config ?(audited = false) programs =
  {
    label;
    config;
    feed = (fun () -> Op_stream.of_programs programs);
    accesses = count_accesses programs;
    audited;
  }
