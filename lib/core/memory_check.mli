(** Runtime coherence checking (§2.5).

    The paper bridges the gap between the Murphi model and the simulator by
    checking invariants inside the simulator at the completion of every
    transaction.  This module is the data-value side of that, and the
    repository's one checker of the per-location sequential-consistency
    axioms.  {!Probe.commit} feeds it every committed operation of either
    coherence backend; nothing else calls {!store_committed} or
    {!load_committed} during a run.

    Store values are drawn from one globally increasing version counter,
    so for any line the store order {e is} the version order.  Per line
    it checks:

    - {e store serialization} (coWW): store versions strictly increase;
    - {e per-node monotonicity} (coRR, coWR): no node observes an older
      version after a newer one; a node's own stores count as
      observations;
    - {e window legality}: a load returns either the value current when
      it began or one committed while it was in flight.  A load of the
      initial value (0) is legal only until the first store commits.

    Each line keeps the last 32 stores in a ring and one last-seen
    version per node, both allocated once per line, so checking a commit
    allocates nothing.  Violations are counted, never fatal, so tests can
    assert the count is zero and online auditors can stop a run as soon
    as it rises. *)

type t

val create : nodes:int -> t
(** A checker for node ids [0 .. nodes-1]. *)

val store_committed : t -> node:Types.node_id -> Types.line -> value:int -> time:int -> unit
(** Node [node] committed a store of version [value]. *)

val load_committed :
  t -> node:Types.node_id -> Types.line -> value:int -> started:int -> time:int -> bool
(** Node [node] committed a load, submitted at [started], that returned
    [value].  True when the value is legal; false records a violation. *)

val crash_forget : t -> dead:Types.node_id -> surviving:(Types.line -> int) -> unit
(** Fail-stop recovery hook: drop the newest run of history entries
    written by [dead] whose values exceed [surviving line] — the freshest
    value still materialized anywhere after the crash.  Those versions
    lived only in the victim's lost cache; survivors legally read the
    older rebuilt value.  Every survivor's last-seen version is capped at
    the surviving value, and the victim's is forgotten: its restarted
    incarnation starts fresh. *)

val violations : t -> int

val violation_report : t -> string list
(** Human-readable description of the first few violations, oldest
    first. *)
