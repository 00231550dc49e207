(** The home directory's answer to a request, written once.

    A Get_shared or Get_exclusive that reaches a line's home is answered
    from three facts: the operation, the directory entry's state, and
    whether the requester is the entry's recorded owner.  Both readers
    take that answer from here: the simulator ({!Node}), which adds the
    predictor, timing and statistics, and the model checker's abstract
    machine ([Pcc_mcheck.Protocol_model]).  The grant-or-delegate choice
    of {!Invalidate_sharers} stays with them: the model explores both,
    the simulator asks the predictor.  Lookups return constant
    constructors and allocate nothing. *)

type answer =
  | Grant_shared  (** memory data; the requester joins the sharers (§2.1) *)
  | Grant_exclusive  (** memory data; the requester becomes the owner (§2.1) *)
  | Invalidate_sharers
      (** invalidate the other sharers, then grant exclusive or delegate
          the directory to the requester (§2.3.1, Fig. 4a) *)
  | Intervene
      (** Busy_shared; the owner downgrades and supplies the reader
          (the 3-hop read of §2.1, Fig. 1) *)
  | Transfer  (** Busy_excl; the owner passes ownership to the writer (§2.1) *)
  | Recall
      (** Busy_excl; the delegated producer undelegates for another
          writer (§2.3.3) *)
  | Forward
      (** the delegated producer serves the read, and the requester
          learns the new home (§2.3.2, Fig. 4b) *)
  | Nack of Message.nack_reason
      (** [Busy] while a transaction is in flight or to the delegated
          producer itself; [Pending] to the exclusive owner, whose
          writeback is in flight *)

val request : Types.op_kind -> Directory.dstate -> owner:bool -> answer
(** [request kind state ~owner] answers a load ([Get_shared]) or a store
    ([Get_exclusive]); [owner] says whether the requester is the entry's
    recorded owner, which only Excl and Dele read. *)
