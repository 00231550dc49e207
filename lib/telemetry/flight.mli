(** Flight-recorder post-mortem decoding.

    {!Pcc_core.Flight_ring} owns the hot recording path and the raw dump
    format, and renders single events ({!Pcc_core.Flight_ring.describe},
    {!Pcc_core.Flight_ring.pp_event}) so stall reports and oracle
    failures print them the same way.  This module is the file side:
    load a dump, render the retained window as a timeline, and emit a
    Perfetto fragment so the same window can be inspected next to a full
    [pcc_trace] capture.  Entry point: [pcc_trace --flight FILE]. *)

type dump = Pcc_core.Flight_ring.dump

type event = Pcc_core.Flight_ring.event

val load : string -> (dump, string) result
(** Read and decode the last line of a file as a JSON flight dump: a
    post-mortem written by {!Pcc_core.System.arm_flight_dump}, or an
    oracle failure artifact, which ends with the flight window at the
    violation. *)

val pp_timeline : Format.formatter -> dump -> unit
(** Dump header (reason, config, window coverage) followed by every
    retained event, oldest first. *)

val perfetto_json : dump -> Pcc_stats.Jsonl.t
(** The retained window as a Perfetto [traceEvents] object: one instant
    event per flight record on the source node's track (pid 0, tid =
    node id, sim cycles as microseconds — the same conventions as
    {!Perfetto}). *)

val write_perfetto : path:string -> dump -> unit
(** Atomic write of {!perfetto_json} (one line). *)
