type answer =
  | Grant_shared
  | Grant_exclusive
  | Invalidate_sharers
  | Intervene
  | Transfer
  | Recall
  | Forward
  | Nack of Message.nack_reason

let request (kind : Types.op_kind) (state : Directory.dstate) ~owner =
  match (kind, state) with
  | Load, (Unowned | Shared_s) -> Grant_shared
  | Store, Unowned -> Grant_exclusive
  | Store, Shared_s -> Invalidate_sharers
  | _, Excl when owner -> Nack Pending (* the owner's writeback is in flight *)
  | Load, Excl -> Intervene
  | Store, Excl -> Transfer
  | _, (Busy_shared | Busy_excl) -> Nack Busy
  | _, Dele when owner -> Nack Busy
  | Load, Dele -> Forward
  | Store, Dele -> Recall
