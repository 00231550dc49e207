(** Abstract model of the bus-snooping MSI/MESI backend for exhaustive
    checking.

    The shared bus serializes transactions, so the model abstracts each
    bus transaction to one atomic step — the standard reduction for
    snooping protocols: a miss invalidates/downgrades every other copy,
    moves dirty data, and fills the requester in a single transition.
    Nondeterminism comes from each node's choice of operation, target
    line, and spontaneous evictions.

    Every state change comes from {!Pcc_core.Snoop_rules}, the MSI/MESI
    policy the simulator backend reads too; on the atomic bus a
    snooper's supplied data also lands in home memory.  Checked in every
    reachable state (prefixed ["L<l>:"] when [lines > 1]): the rules'
    per-line invariants, plus the model's own two over its version
    counters — {e latest-materialized} (the newest store lives in the
    M/E copy when one exists, in home memory otherwise) and {e
    observations-monotone}.  [bug] takes the simulator's fault hook,
    {!Pcc_core.Config.Snoop_upgr_skips_invals}, so tests can prove the
    checker and the litmus harness detect a broken bus protocol. *)

type params = {
  nodes : int;  (** 2..5 is practical *)
  lines : int;  (** independent lines; the state space is the product *)
  variant : Pcc_core.Types.protocol;  (** [Msi] or [Mesi] *)
  max_ops_per_node : int;  (** per line *)
  bug : Pcc_core.Config.fault option;
}

val default_params : params
(** 3 nodes, 1 line, MSI, 2 ops each, no bug. *)

val make : ?por:bool -> params -> (module Checker.MODEL)
(** [por] (default true) exposes per-line transition groups for
    partial-order reduction; it only has an effect when
    [params.lines > 1].

    @raise Invalid_argument when [nodes] is outside 2..5, [lines < 1],
    or [variant] is [Adaptive]. *)
