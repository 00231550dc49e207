(** Bus-snooping MSI/MESI backend.

    The classic broadcast protocols, modeled on the same plumbing as the
    adaptive machine (hub links, network, event probe, statistics)
    so every observability and fault-injection layer applies unchanged.

    The shared bus is a machine-wide round-robin arbiter: one
    transaction holds the bus at a time, a grant costs
    [Config.hub_latency] cycles, and the bus commands travel as ordinary
    point-to-point messages to every snooper ([Bus_rd] / [Bus_rdx] /
    [Bus_upgr]), each answered by a [Snoop_resp] so the requester
    assembles the bus-wide OR of the shared/owner wires.  An M/E holder
    supplies data cache-to-cache with [Bus_flush]; the home node's
    response carries the memory word (read in parallel with the snoop,
    [Config.dram_latency] late) as the fallback source.

    Memory-currency discipline: the bus is released only after dirty
    data displaced by the transaction (owner downgrades on a read, dirty
    victims of the fill) has reached home memory and been acknowledged
    ([Bus_wb] / [Bus_wb_ack]).  Holding the bus across the write-back
    closes every stale-memory race, which is what makes the invariant
    "every Shared copy equals home memory" checkable after a run.

    State encoding on the shared {!L2}: M = [Exclusive] dirty,
    E = [Exclusive] clean (MESI only; MSI loads always fill [Shared]),
    S = [Shared], I = absent.

    Fail-stop crashes are not supported ([Invalid_argument] at creation
    on a crash-capable config); chaos profiles without crashes work —
    the hardened hub link restores exactly-once FIFO delivery and every
    bus transaction then completes without protocol-level retries. *)

type t

val create_machine :
  probe:Probe.t ->
  config:Config.t ->
  sim:Pcc_engine.Simulator.t ->
  network:Message.t Hub_link.frame Pcc_interconnect.Network.t ->
  stats:Run_stats.t ->
  memcheck:Memory_check.t ->
  next_version:(unit -> int) ->
  rng:Pcc_engine.Rng.t ->
  unit ->
  t array
(** Build all [config.nodes] nodes around one shared bus.  Unlike the
    adaptive backend the nodes cannot be created independently — the
    arbiter is machine-wide state — hence the whole-machine constructor.
    Every protocol event is emitted through [probe].  [config.protocol]
    must be [Msi] or [Mesi]. *)

module Backend : Protocol.S with type node = t
