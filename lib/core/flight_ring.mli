(** Always-on flight recorder: a fixed-size ring of int-packed protocol
    events.

    Every {!System} keeps one of these running from cycle zero; the
    record path stores four ints into preallocated arrays and allocates
    nothing, so the recorder can stay on for every run (the [test_alloc]
    budgets enforce this).  When a run ends badly — stalled, oracle
    violation, node crash, uncaught exception — the last window of
    events is dumped atomically as a JSON post-mortem artifact that
    [pcc_trace --flight] decodes into a timeline and a Perfetto
    fragment (see {!Pcc_telemetry.Flight}). *)

type t

val create : ?capacity:int -> unit -> t
(** Ring holding the last [capacity] events (rounded up to a power of
    two; default 4096). *)

(** {2 Event kinds}

    Each recorded event is [(time, kind, detail, src, dst, arg, line)]
    packed into four ints.  [kind] says which {!Probe} emitter wrote
    it; [detail] refines it (message class, operation kind, crash phase
    or note code); [line] is the affected line or [-1]. *)

val k_send : int  (** coherence message sent; detail = message class *)

val k_recv : int  (** coherence message delivered; detail = message class *)

val k_retransmit : int  (** hub-link retransmission (no line) *)

val k_issue : int  (** processor op submitted; detail = 0 load / 1 store *)

val k_commit : int
(** processor op committed; detail = 0 load / 1 store, arg = value *)

val k_crash : int  (** fail-stop phase; detail = 0 down / 1 detected / 2 restarted *)

val k_note : int  (** protocol decision point; detail = note code below *)

val kind_count : int

val kind_name : int -> string

(** {2 Note codes} (the [detail] of a [k_note] event) *)

val n_timeout : int  (** completion timeout; arg = strikes so far *)

val n_fallback : int  (** line demoted to the base 3-hop protocol *)

val n_delegate : int  (** delegation granted; arg = consumers this epoch *)

val n_delegation_refused : int  (** producer refused the delegation *)

val n_undelegate : int  (** producer gave the line back to its home *)

val n_revoke : int  (** delegation revoked by crash recovery *)

val n_predictor : int
(** predictor consulted on a write; arg = 1 if classified
    producer-consumer *)

val n_dir_state : int
(** directory entry changed state; arg = {!Directory.dstate} code *)

val note_count : int

val note_name : int -> string

val dstate_code : Directory.dstate -> int

val dstate_name : int -> string

(** {2 Recording (hot path — allocation free)} *)

val record :
  t -> time:int -> kind:int -> detail:int -> src:int -> dst:int -> line:int ->
  arg:int -> unit

val total : t -> int
(** Events ever recorded (may exceed capacity). *)

val capacity : t -> int

(** {2 Decoding} *)

type event = {
  e_time : int;
  e_kind : int;
  e_detail : int;
  e_src : int;
  e_dst : int;
  e_arg : int;
  e_line : int;  (** -1 when the event has no line *)
}

val pack_code : kind:int -> detail:int -> src:int -> dst:int -> int
(** The packed second word of an event, as stored in the ring and in
    dump files. *)

val unpack : time:int -> code:int -> arg:int -> line:int -> event

val events : t -> event list
(** The retained window (last [min total capacity] events), oldest
    first — wrap-around is resolved here. *)

(** {2 Post-mortem dumps} *)

type dump = {
  d_reason : string;
  d_time : int;  (** simulation time of the dump *)
  d_nodes : int;
  d_config : string;
  d_recorded : int;  (** events ever recorded *)
  d_capacity : int;
  d_events : event list;  (** retained window, oldest first *)
}

val dump_to_json :
  t -> reason:string -> time:int -> nodes:int -> config:string -> Pcc_stats.Jsonl.t

val dump_of_json : Pcc_stats.Jsonl.t -> (dump, string) result

val write_dump :
  t -> path:string -> reason:string -> time:int -> nodes:int -> config:string ->
  unit
(** Atomic temp+rename write of {!dump_to_json} (one line). *)
