(** Per-line commit history, linearized for differential replay.

    Store values in the simulator are drawn from one globally increasing
    version counter, so for any line the store order {e is} the version
    order.  This module records every committed operation per line and
    extracts, for each line, a serial order of its operations: the input
    {!Diff} replays through the model checker's transition system.

    It checks nothing.  The per-location coherence axioms (store
    serialization, per-node monotonicity, window legality) are checked
    online by {!Pcc_core.Memory_check}, which every commit passes through;
    a history recorded from a run that finished without violations is
    therefore already known to be legal.  The history is unbounded, so
    {!Runner} records one only when it will replay it. *)

open Pcc_core

type t

val create : unit -> t

val attach : System.t -> t
(** A fresh history fed by every commit of [sys] (register before
    running it). *)

val record_store : t -> node:int -> line:Types.line -> value:int -> time:int -> unit

val record_load : t -> node:int -> line:Types.line -> value:int -> time:int -> unit

(** One operation in a line's extracted serial order. *)
type op =
  | O_store of { node : int; value : int; time : int }
  | O_load of { node : int; value : int; time : int }

val linearize : t -> (Types.line * op list) list
(** Per line: stores in version order, each followed by the loads that
    observed it (ordered by commit time, then node); loads of the initial
    value come first. *)

val store_count : t -> Types.line -> int

val last_store : t -> Types.line -> int
(** Version of the newest store to the line; 0 if never written. *)
