(** One oracle-checked run, end to end: the one checked-run path that
    [pcc_oracle], [pcc_chaos], the tests and the example share.

    Builds the system a {!Trace.run_desc} describes, attaches the online
    {!Audit} (on a snooping backend only its value-order stop), executes
    the workload, and — when the run survives the online checks —
    applies the post-run layers: the run quiesced, every access
    committed, the auditor's final sweep, the quiescent structural
    invariants, the {!Stats_check} identities, and (optionally, adaptive
    backend only) the {!Diff} replay against the model checker.  The
    {!Order} history the replay needs is recorded only when the replay
    will run. *)

open Pcc_core

type report = {
  desc : Trace.run_desc;
  result : System.result option;
      (** [None] when the run aborted on an online violation *)
  accesses : int;  (** accesses in the programs; each must commit *)
  injected : Pcc_interconnect.Fault.stats option;
      (** what the fault layer injected; [None] without one *)
  violations : string list;  (** all layers' messages, empty = clean *)
  flight : Flight_ring.dump option;
      (** the system's flight window where the run stopped, headed by the
          first violation; [None] when clean *)
  diff : Diff.outcome option;
}

val run :
  ?diff:bool ->
  ?max_lines:int ->
  ?max_events:int ->
  ?flight_dump:string ->
  Trace.run_desc ->
  report
(** [diff] (default true) controls the model-checker replay; it is
    skipped anyway when an earlier layer already failed.  Divergences are
    folded into [violations].  A run [max_events] cuts short fails with
    its stall report first; [flight_dump] arms
    {!System.arm_flight_dump}. *)

val clean : report -> bool

val save_artifact : path:string -> report -> unit
(** Write the failure trace (see {!Trace.write}): header, violations,
    then the flight window, which [pcc_trace --flight] decodes.  Call
    only when [not (clean report)]. *)
