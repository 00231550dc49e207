(** Replayable failure traces.

    A violation is only useful if it can be reproduced, so the oracle's
    artifact is a {e run descriptor} — everything needed to regenerate the
    exact workload and configuration — plus the violation messages and the
    machine's flight window at the failure for context.  The file format
    is JSON Lines: a [kind = "run"] header object, one
    [kind = "violation"] object per message, then one [kind = "pcc-flight"]
    object written by {!Pcc_core.Flight_ring.dump_to_json} — the same
    line a post-mortem dump file holds, so [pcc_trace --flight] decodes
    the artifact.  Replaying means rebuilding the system from the header
    and re-running with the oracle attached; the flight window is for
    humans.

    Workloads are deterministic functions of (bench, nodes, scale, seed),
    so the descriptor fully pins the run. *)

open Pcc_core

type run_desc = {
  bench : string;  (** a {!Pcc_workload.Workload.of_spec} workload spec *)
  config_name : string;
      (** ["base"], ["rac"], ["delegation"], ["full"], or a snooping
          backend: ["msi"], ["mesi"] *)
  nodes : int;
  scale : float;  (** epoch-count multiplier for app benchmarks *)
  seed : int;
  fault : bool;  (** inject the stale-update protocol fault (test-only) *)
}

val config_of_desc : run_desc -> Config.t
(** Build the simulator configuration the descriptor names.  Raises
    [Invalid_argument] on an unknown [config_name]. *)

val programs_of_desc : run_desc -> Types.op list array
(** Regenerate the workload via {!Pcc_workload.Workload.of_spec}.  Raises
    [Invalid_argument] on a spec the registry rejects. *)

val write :
  path:string ->
  desc:run_desc ->
  violations:string list ->
  flight:Flight_ring.dump option ->
  unit
(** Write a failure artifact (overwrites [path]); the flight line is
    omitted when [flight] is [None]. *)

val read_desc : path:string -> (run_desc, string) result
(** Parse the run-descriptor header back from a trace file. *)
