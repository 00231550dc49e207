module Sim = Pcc_engine.Simulator

type commit_event = {
  c_node : Types.node_id;
  c_kind : Types.op_kind;
  c_line : Types.line;
  c_value : int;
  c_started : int;
  c_time : int;
  c_l2_hit : bool;
  c_miss : Types.miss_class option;
}

type crash_phase = Crash_down | Crash_detected | Crash_restarted

type msg_observer =
  time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit

type t = {
  sim : Sim.t;
  stats : Run_stats.t;
  memcheck : Memory_check.t;
  flight : Flight_ring.t;
  class_cells : int ref option array;
      (* cached [stats.message_classes] cells, indexed by
         [Message.class_index]; filled lazily so untouched classes never
         appear in reports, then bumped without hashing the class name *)
  mutable sends : msg_observer list;
  mutable recvs : msg_observer list;
  mutable issues :
    (time:int -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> unit)
    list;
  mutable commits : (commit_event -> unit) list;
  mutable retransmits :
    (time:int -> src:Types.node_id -> dst:Types.node_id -> unit) list;
  mutable crashes :
    (time:int -> node:Types.node_id -> phase:crash_phase -> unit) list;
}

let create ~sim ~stats ~memcheck =
  {
    sim;
    stats;
    memcheck;
    flight = Flight_ring.create ();
    class_cells = Array.make Message.class_count None;
    sends = [];
    recvs = [];
    issues = [];
    commits = [];
    retransmits = [];
    crashes = [];
  }

let flight t = t.flight

let on_send t f = t.sends <- t.sends @ [ f ]

let on_recv t f = t.recvs <- t.recvs @ [ f ]

let on_issue t f = t.issues <- t.issues @ [ f ]

let on_commit t f = t.commits <- t.commits @ [ f ]

let on_retransmit t f = t.retransmits <- t.retransmits @ [ f ]

let on_crash t f = t.crashes <- t.crashes @ [ f ]

let op_code = function Types.Load -> 0 | Types.Store -> 1

let crash_phase_code = function
  | Crash_down -> 0
  | Crash_detected -> 1
  | Crash_restarted -> 2

(* Subscriber fan-out loops: unlike [List.iter] over a fresh closure they
   allocate nothing per event, so observers cost only their own work. *)
let rec fire_msg fs ~time ~src ~dst msg =
  match fs with
  | [] -> ()
  | f :: rest ->
      f ~time ~src ~dst msg;
      fire_msg rest ~time ~src ~dst msg

let rec fire_issue fs ~time ~node ~kind ~line =
  match fs with
  | [] -> ()
  | f :: rest ->
      f ~time ~node ~kind ~line;
      fire_issue rest ~time ~node ~kind ~line

let rec fire_commit fs event =
  match fs with
  | [] -> ()
  | f :: rest ->
      f event;
      fire_commit rest event

let rec fire_link fs ~time ~src ~dst =
  match fs with
  | [] -> ()
  | f :: rest ->
      f ~time ~src ~dst;
      fire_link rest ~time ~src ~dst

let count_class t msg =
  let idx = Message.class_index msg in
  let cell =
    match Array.unsafe_get t.class_cells idx with
    | Some cell -> cell
    | None ->
        let cell =
          Pcc_stats.Counter.cell t.stats.message_classes (Message.class_name msg)
        in
        t.class_cells.(idx) <- Some cell;
        cell
  in
  cell := !cell + 1

let send t ~src ~dst msg =
  let time = Sim.now t.sim in
  Flight_ring.record t.flight ~time ~kind:Flight_ring.k_send
    ~detail:(Message.class_index msg) ~src ~dst ~line:(Message.line_of msg) ~arg:0;
  fire_msg t.sends ~time ~src ~dst msg;
  if dst <> src then count_class t msg

let recv t ~src ~dst msg =
  let time = Sim.now t.sim in
  Flight_ring.record t.flight ~time ~kind:Flight_ring.k_recv
    ~detail:(Message.class_index msg) ~src ~dst ~line:(Message.line_of msg) ~arg:0;
  fire_msg t.recvs ~time ~src ~dst msg

let issue t ~node ~kind ~line =
  let time = Sim.now t.sim in
  Flight_ring.record t.flight ~time ~kind:Flight_ring.k_issue ~detail:(op_code kind)
    ~src:node ~dst:node ~line ~arg:0;
  fire_issue t.issues ~time ~node ~kind ~line

let commit t ~node ~kind ~line ~value ~started ~l2_hit ~miss =
  let time = Sim.now t.sim in
  (match kind with
  | Types.Load ->
      ignore (Memory_check.load_committed t.memcheck ~node line ~value ~started ~time)
  | Types.Store -> Memory_check.store_committed t.memcheck ~node line ~value ~time);
  (match miss with
  | Some m -> Run_stats.record_miss t.stats m ~line ~latency:(time - started)
  | None -> ());
  Flight_ring.record t.flight ~time ~kind:Flight_ring.k_commit ~detail:(op_code kind)
    ~src:node ~dst:node ~line ~arg:value;
  match t.commits with
  | [] -> ()
  | fs ->
      let event =
        {
          c_node = node;
          c_kind = kind;
          c_line = line;
          c_value = value;
          c_started = started;
          c_time = time;
          c_l2_hit = l2_hit;
          c_miss = miss;
        }
      in
      fire_commit fs event

let retransmit t ~src ~dst =
  let time = Sim.now t.sim in
  Flight_ring.record t.flight ~time ~kind:Flight_ring.k_retransmit ~detail:0 ~src ~dst
    ~line:(-1) ~arg:0;
  fire_link t.retransmits ~time ~src ~dst

let crash t ~node ~phase =
  let time = Sim.now t.sim in
  Flight_ring.record t.flight ~time ~kind:Flight_ring.k_crash
    ~detail:(crash_phase_code phase) ~src:node ~dst:node ~line:(-1) ~arg:0;
  List.iter (fun f -> f ~time ~node ~phase) t.crashes

let note t ~node ~code ~line ~arg =
  Flight_ring.record t.flight ~time:(Sim.now t.sim) ~kind:Flight_ring.k_note
    ~detail:code ~src:node ~dst:node ~line ~arg

let hub_link t ~(config : Config.t) ~network ~id ~deliver =
  let stats = t.stats in
  Hub_link.create ~sim:t.sim ~network ~id ~nodes:config.nodes
    ~reliable:(Config.hardened config) ~rto:config.link_rto
    ~rto_cap:config.link_rto_cap ~ack_bytes:Message.header_bytes
    ~on_retransmit:(fun ~dst ->
      stats.retransmits <- stats.retransmits + 1;
      retransmit t ~src:id ~dst)
    ~on_duplicate:(fun () -> stats.dup_dropped <- stats.dup_dropped + 1)
    ~deliver:(fun ~src msg ->
      recv t ~src ~dst:id msg;
      deliver ~src msg)
