(** The MSI/MESI per-line policy, written once.

    Guarded transitions over one cache's copy of one line: an access
    hits or puts a command on the bus, every other cache reacts to it,
    the requester fills, and a copy is eventually evicted.  Both readers
    take every state change from here: the simulator backend
    ({!Snoop}), which adds arbitration, messages and timing, and the
    model checker's atomic-bus abstraction ([Pcc_mcheck.Snoop_model]).
    Lookups return constant constructors and allocate nothing.

    The planted bug {!Config.Snoop_upgr_skips_invals} is one edited
    rule: an S copy survives an [Upgr]. *)

(** On the simulator's {!L2}: M is [Exclusive] dirty, E is [Exclusive]
    clean, S is [Shared], I is absent. *)
type copy = I | S | E | M

type cmd =
  | Rd  (** the requester wants a readable copy *)
  | Rdx  (** the requester holds no copy and will write *)
  | Upgr  (** the requester holds S and will write; no data moves *)

type access =
  | Hit  (** a load on S/E/M, a store on M *)
  | Silent_upgrade  (** a store on E: MESI's E->M without the bus *)
  | Miss

val access : Types.op_kind -> copy -> access

val command : Types.op_kind -> copy -> cmd
(** A miss's command, chosen from the requester's copy when the bus is
    granted: loads read, a store on S upgrades, other stores read
    exclusive. *)

val snoop : Config.fault option -> cmd -> copy -> copy
(** A snooper's next state: [Rd] downgrades E/M to S, [Rdx] invalidates,
    [Upgr] invalidates S (an upgrader holds S, so no E/M meets one). *)

type supply =
  | Keep  (** no data *)
  | Flush  (** supplies its copy cache-to-cache *)
  | Flush_home  (** supplies it, and the dirty data must reach home memory *)

val supply : cmd -> copy -> supply
(** E and M supply on [Rd] and [Rdx].  Only M on [Rd] owes memory: it
    stays as S, which must equal memory; on [Rdx] the requester
    overwrites the line, so the dirty word dies with the copy. *)

val fill : Types.protocol -> Types.op_kind -> others:bool -> copy
(** The requester's copy once its access completes: a load fills E under
    MESI when no other cache held a copy, else S; a store leaves M. *)

type eviction = Drop | Writeback

val evict : copy -> eviction
(** M is written back; S and E drop silently. *)

val invariants :
  Types.protocol -> (string * (copy array -> int array -> int -> bool)) list
(** ["single-writer"] (an E/M copy is the only copy),
    ["shared-matches-memory"] and ["msi-has-no-exclusive-clean"], each
    applied as [holds copies values mem] to one line: every node's copy,
    its data (read where the copy is not I), and home memory's word. *)

val to_string : copy -> string
(** ["I"], ["S"], ["E"] or ["M"]. *)
