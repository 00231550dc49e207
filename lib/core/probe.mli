(** The machine-wide protocol event probe.

    Every observable protocol event — a message sent or delivered, a
    processor operation issued or committed, a hub-link retransmission,
    a crash phase, a protocol decision note — is emitted through exactly
    one function here, whichever coherence backend produced it.  Each
    emitter writes the event into the always-on {!Flight_ring} and then
    calls that kind's subscribers in registration order, so the flight
    recorder, the oracle, telemetry spans and benchmark ledgers all read
    one event stream.  The per-location coherence checker
    ({!Memory_check}) and the miss accounting read the commit stream
    here too, ahead of any subscriber.

    {!System.create} builds one probe per machine and hands it to the
    backend's node constructors; its [on_*] registrations are the
    subscription functions below. *)

(** A committed processor operation.  [c_value] is the value returned
    to the processor — for stores, the globally unique version
    written. *)
type commit_event = {
  c_node : Types.node_id;
  c_kind : Types.op_kind;
  c_line : Types.line;
  c_value : int;
  c_started : int;  (** cycle the operation was submitted *)
  c_time : int;  (** cycle it committed *)
  c_l2_hit : bool;  (** satisfied entirely by the local L2 *)
  c_miss : Types.miss_class option;
      (** how the miss was serviced; [None] for L2 hits *)
}

(** One crash's life cycle: [Crash_down] when the node fail-stops
    (volatile state lost, links down), [Crash_detected] after the
    configured detection delay (epoch bumped, machine-wide recovery
    sweep done), [Crash_restarted] when a scheduled restart re-admits
    the node cold. *)
type crash_phase = Crash_down | Crash_detected | Crash_restarted

type t

val create :
  sim:Pcc_engine.Simulator.t -> stats:Run_stats.t -> memcheck:Memory_check.t -> t
(** A probe with a fresh flight ring and no subscribers.  Event times
    are read from [sim]; per-class message counts and miss latencies go
    to [stats]; every commit is checked by [memcheck]. *)

val flight : t -> Flight_ring.t

(** {2 Emitters}

    Called by the backends at the point each event happens.  The ring
    record allocates nothing; with no subscribers registered, nothing
    else runs either. *)

val send : t -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit
(** A coherence message leaves [src].  After the subscribers, a message
    to another node is counted in [stats.message_classes] (hub-local
    messages are not traffic). *)

val recv : t -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit
(** A coherence message is delivered to [dst], before the protocol
    reacts to it.  {!hub_link} emits this for every delivery. *)

val issue : t -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> unit
(** A processor operation is submitted, before any cache lookup. *)

val commit :
  t -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> value:int ->
  started:int -> l2_hit:bool -> miss:Types.miss_class option -> unit
(** A processor operation commits, after its cache effects and before
    the processor's continuation runs.  Before the ring record and the
    subscribers, the operation is checked by the probe's
    {!Memory_check}, and a miss ([miss = Some m]) is recorded in the run
    statistics with latency [now - started]: the backends call neither
    themselves. *)

val retransmit : t -> src:Types.node_id -> dst:Types.node_id -> unit
(** A hub-link retransmission on the [src -> dst] link.  {!hub_link}
    emits this. *)

val crash : t -> node:Types.node_id -> phase:crash_phase -> unit

val note : t -> node:Types.node_id -> code:int -> line:Types.line -> arg:int -> unit
(** A protocol decision point ([code] is a {!Flight_ring} note code).
    Notes go to the ring only; no observer subscribes to them. *)

(** {2 Hub wiring} *)

val hub_link :
  t -> config:Config.t ->
  network:Message.t Hub_link.frame Pcc_interconnect.Network.t ->
  id:Types.node_id -> deliver:(src:Types.node_id -> Message.t -> unit) ->
  Message.t Hub_link.t
(** Node [id]'s hub-link endpoint, configured from [config] (reliable
    exactly when {!Config.hardened}).  Every delivery is emitted as a
    {!recv} event before [deliver] runs; every retransmission and every
    suppressed duplicate is counted in the run statistics, and
    retransmissions are emitted as {!retransmit} events. *)

(** {2 Subscribers}

    Observers compose: each registered function is called in
    registration order, and none replaces another.  Observers must not
    submit operations or mutate protocol state; raising aborts the
    run. *)

val on_send :
  t -> (time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit) ->
  unit

val on_recv :
  t -> (time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit) ->
  unit

val on_issue :
  t ->
  (time:int -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> unit) ->
  unit

val on_commit : t -> (commit_event -> unit) -> unit

val on_retransmit :
  t -> (time:int -> src:Types.node_id -> dst:Types.node_id -> unit) -> unit

val on_crash :
  t -> (time:int -> node:Types.node_id -> phase:crash_phase -> unit) -> unit
