(* Litmus tests against the real simulator: small per-thread programs,
   committed operations checked against the per-location SC axioms by
   the oracle's order tracker, plus per-test forbidden-outcome
   predicates.  See litmus.mli for the axiom-to-check mapping. *)

open Pcc_core
module Order = Pcc_oracle.Order
module Fault = Pcc_interconnect.Fault

type instr = Load of int | Store of int | Delay of int | Barrier of int

type obs = {
  o_node : int;
  o_kind : Types.op_kind;
  o_loc : int;
  o_value : int;
  o_started : int;
  o_time : int;
}

type test = {
  name : string;
  threads : instr list list;
  rounds : int;
  forbidden : (string * (obs list -> bool)) option;
}

type outcome = Pass | Fail of string

type result = {
  r_test : string;
  r_config : string;
  r_profile : string;
  r_seed : int;
  r_outcome : outcome;
}

(* ------------------------------------------------------------------ *)
(* Compilation to simulator programs                                    *)
(* ------------------------------------------------------------------ *)

let node_count test = max 2 (List.length test.threads)

let line_of_loc ~nodes loc = Types.Layout.make_line ~home:(loc mod nodes) ~index:loc

let compile ~nodes test =
  let compile_instr = function
    | Load loc -> Types.Access (Types.Load, line_of_loc ~nodes loc)
    | Store loc -> Types.Access (Types.Store, line_of_loc ~nodes loc)
    | Delay n -> Types.Compute n
    | Barrier id -> Types.Barrier id
  in
  let thread instrs =
    List.concat (List.init test.rounds (fun _ -> List.map compile_instr instrs))
  in
  Array.init nodes (fun n ->
      match List.nth_opt test.threads n with
      | Some instrs -> thread instrs
      | None -> [])

(* ------------------------------------------------------------------ *)
(* Axiom checking                                                       *)
(* ------------------------------------------------------------------ *)

(* Replay the commit stream (chronological by construction) through the
   oracle's per-address order tracker.  Its checks are exactly the
   per-location SC axioms: store serialization (coWW) and per-node
   monotonicity + window legality (coRR, coRW, coWR — a node's own
   stores count as observations). *)
let check_axioms ~nodes observations =
  let order = Order.create ~keep_history:false () in
  try
    List.iter
      (fun o ->
        let line = line_of_loc ~nodes o.o_loc in
        match o.o_kind with
        | Types.Store ->
            Order.record_store order ~node:o.o_node ~line ~value:o.o_value
              ~time:o.o_time
        | Types.Load ->
            Order.record_load order ~node:o.o_node ~line ~value:o.o_value
              ~started:o.o_started ~time:o.o_time)
      observations;
    None
  with Order.Violation message -> Some message

let run_test ~config ?(max_events = 20_000_000) test =
  let nodes = node_count test in
  let config = { config with Config.nodes } in
  let sys = System.create ~config () in
  let observations = ref [] in
  System.on_commit sys (fun e ->
      observations :=
        {
          o_node = e.Probe.c_node;
          o_kind = e.Probe.c_kind;
          o_loc = Types.Layout.index_of_line e.Probe.c_line;
          o_value = e.Probe.c_value;
          o_started = e.Probe.c_started;
          o_time = e.Probe.c_time;
        }
        :: !observations);
  let result = System.run_programs ~max_events sys (compile ~nodes test) in
  let observations = List.rev !observations in
  match result.System.stall with
  | Some report ->
      Fail (Format.asprintf "did not quiesce: %a" System.pp_stall_report report)
  | None -> (
      if result.System.violations > 0 then
        Fail
          (Printf.sprintf "simulator value checker flagged %d violation(s)"
             result.System.violations)
      else
        match result.System.invariant_errors with
        | err :: _ -> Fail (Printf.sprintf "machine invariant: %s" err)
        | [] -> (
            match check_axioms ~nodes observations with
            | Some message -> Fail (Printf.sprintf "per-location SC: %s" message)
            | None -> (
                match test.forbidden with
                | Some (description, reached) when reached observations ->
                    Fail (Printf.sprintf "forbidden outcome reached: %s" description)
                | _ -> Pass)))

(* ------------------------------------------------------------------ *)
(* The regression corpus                                                *)
(* ------------------------------------------------------------------ *)

(* Thread 0 is the home of location 0 (and of every [loc mod nodes = 0]
   location); producers run on non-home nodes so delegation and updates
   actually engage.  Rounds are sized to saturate the write-repeat
   predictor with margin, so the optimized paths are exercised, while
   keeping each run to a few dozen operations per thread. *)

(* A node's load returned an older version than a store the same node
   committed earlier (coWR read from the past). *)
let own_store_overtaken observations =
  let last_store = Hashtbl.create 8 in
  List.exists
    (fun o ->
      let key = (o.o_node, o.o_loc) in
      match o.o_kind with
      | Types.Store ->
          Hashtbl.replace last_store key o.o_value;
          false
      | Types.Load -> (
          match Hashtbl.find_opt last_store key with
          | Some v -> o.o_value < v
          | None -> false))
    observations

(* Message passing via two locations: after the consumer observes flag
   version [fv], its next data load must return at least the newest data
   store serialized before [fv] (store versions are drawn from one
   global counter, so cross-line ordering is comparable). *)
let mp_stale_data ~data ~flag ~producer ~consumer observations =
  let data_stores =
    List.filter_map
      (fun o ->
        if o.o_node = producer && o.o_kind = Types.Store && o.o_loc = data then
          Some o.o_value
        else None)
      observations
  in
  let newest_data_before fv =
    List.fold_left (fun acc v -> if v < fv then max acc v else acc) 0 data_stores
  in
  let rec scan threshold = function
    | [] -> false
    | o :: rest when o.o_node <> consumer || o.o_kind <> Types.Load ->
        scan threshold rest
    | o :: rest when o.o_loc = flag ->
        scan (max threshold (newest_data_before o.o_value)) rest
    | o :: rest ->
        (* consumer data load *)
        if o.o_loc = data && o.o_value < threshold then true else scan threshold rest
  in
  scan 0 observations

let corpus =
  [
    {
      name = "coWW:dueling-stores";
      threads = [ [ Load 0; Delay 40 ]; [ Store 0; Delay 60 ]; [ Store 0; Delay 90 ] ];
      rounds = 10;
      forbidden = None;
    };
    {
      name = "coRR:producer-consumer";
      threads =
        [ [ Load 0; Delay 50 ]; [ Store 0; Delay 40 ]; [ Load 0; Load 0; Delay 30 ] ];
      rounds = 16;
      forbidden = None;
    };
    {
      name = "coRW:read-modify";
      threads = [ []; [ Load 0; Store 0; Delay 50 ]; [ Load 0; Store 0; Delay 70 ] ];
      rounds = 10;
      forbidden = None;
    };
    {
      name = "coWR:store-then-load";
      threads = [ []; [ Store 0; Load 0; Delay 50 ]; [ Store 0; Load 0; Delay 70 ] ];
      rounds = 10;
      forbidden = Some ("own store overtaken by an older value", own_store_overtaken);
    };
    {
      name = "mp:flag-then-stale-data";
      threads =
        [
          [];
          [ Store 2; Store 1; Delay 60 ] (* data (loc 2), then flag (loc 1) *);
          [ Load 1; Load 2; Delay 40 ];
        ];
      rounds = 16;
      forbidden =
        Some
          ( "consumer saw the flag but stale data",
            mp_stale_data ~data:2 ~flag:1 ~producer:1 ~consumer:2 );
    };
  ]

(* ------------------------------------------------------------------ *)
(* Configuration × chaos matrix                                         *)
(* ------------------------------------------------------------------ *)

let standard_configs =
  [
    ("base", fun ~nodes ~seed -> { (Config.base ~nodes ()) with Config.seed });
    ( "delegation",
      fun ~nodes ~seed -> { (Config.delegation_only ~nodes ()) with Config.seed } );
    ("updates", fun ~nodes ~seed -> { (Config.full ~nodes ()) with Config.seed });
    ( "adaptive",
      fun ~nodes ~seed ->
        { (Config.full ~nodes ()) with Config.adaptive_intervention = true; seed } );
    ("msi", fun ~nodes ~seed -> { (Config.snoop ~nodes Types.Msi ()) with Config.seed });
    ("mesi", fun ~nodes ~seed -> { (Config.snoop ~nodes Types.Mesi ()) with Config.seed });
  ]

(* The snooping slice of the matrix, for backend-focused sweeps. *)
let snoop_configs protocol =
  List.filter (fun (name, _) -> name = Pcc_core.Protocol.to_string protocol)
    standard_configs

let standard_profiles =
  [
    ("reliable", fun ~seed:_ -> None);
    ("drops", fun ~seed -> Some (Fault.drops ~seed));
    ("storm", fun ~seed -> Some (Fault.storm ~seed));
  ]

let mutation_config ~nodes ~seed =
  {
    (Config.full ~nodes ()) with
    Config.inject_fault = Some Config.Stale_update_no_resharing;
    seed;
  }

let snoop_mutation_config ~nodes ~seed =
  {
    (Config.snoop ~nodes Types.Msi ()) with
    Config.inject_fault = Some Config.Snoop_upgr_skips_invals;
    seed;
  }

let run_matrix ?(jobs = 1) ?(configs = standard_configs) ?(profiles = standard_profiles)
    ?(seeds = [ 1; 2; 3 ]) tests =
  let cases =
    List.concat_map
      (fun test ->
        List.concat_map
          (fun (cname, mk_config) ->
            List.concat_map
              (fun (pname, mk_profile) ->
                List.map
                  (fun seed ->
                    let key =
                      Printf.sprintf "%s/%s/%s/seed%d" test.name cname pname seed
                    in
                    ( key,
                      fun () ->
                        let nodes = node_count test in
                        let config = mk_config ~nodes ~seed in
                        let config =
                          match mk_profile ~seed with
                          | None -> config
                          | Some profile -> Config.with_faults config profile
                        in
                        {
                          r_test = test.name;
                          r_config = cname;
                          r_profile = pname;
                          r_seed = seed;
                          r_outcome = run_test ~config test;
                        } ))
                  seeds)
              profiles)
          configs)
      tests
  in
  Pcc_parallel.Pool.run_keyed ~jobs cases

let failures results =
  List.filter (fun r -> match r.r_outcome with Pass -> false | Fail _ -> true) results

let pp_result ppf r =
  Format.fprintf ppf "%-28s %-10s %-8s seed=%d  %s" r.r_test r.r_config r.r_profile
    r.r_seed
    (match r.r_outcome with Pass -> "pass" | Fail m -> "FAIL: " ^ m)
