module Sim = Pcc_engine.Simulator
module Rules = Snoop_rules

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* One outstanding processor transaction at its requester.  A bus
   transaction completes — and releases the bus — only once every snoop
   response is in, the data source has delivered (cache-to-cache flush
   when an owner exists, the home's memory word otherwise), and every
   write-back it displaced has been acknowledged by home memory. *)
type pending = {
  kind : Types.op_kind;
  line : Types.line;
  started : int;
  tid : int;
  on_commit : unit -> unit;
  mutable granted : bool;
  mutable upgrade : bool;  (* command went out as Bus_upgr: no data leg *)
  mutable resp_needed : int;  (* snoop responses still outstanding *)
  mutable shared_seen : bool;
  mutable owner_seen : bool;
  mutable supplied : int option;  (* cache-to-cache flush value *)
  mutable mem_value : int option;  (* home memory word *)
  mutable wb_expected : int;  (* home acks owed: dirty flushes + victims *)
  mutable wb_received : int;
  mutable filled : bool;  (* the L2 fill (and victim eviction) ran *)
}

type t = {
  config : Config.t;
  sim : Sim.t;
  hub : Message.t Hub_link.t;
  id : Types.node_id;
  stats : Run_stats.t;
  next_version : unit -> int;
  l2 : L2.t;
  dram : Pcc_memory.Dram.t;
  mem : (Types.line, int) Hashtbl.t;
      (* home memory for this node's slice; absent lines read 0, matching
         the value oracle's before-time initial value *)
  bus : bus;
  probe : Probe.t;
  mutable next_tid : int;
  mutable pending : pending option;
}

(* The machine-wide bus: a round-robin arbiter over the nodes.  [rr] is
   where the next grant scan starts, so a node that just transacted goes
   to the back of the queue; the scan order is deterministic, keeping
   runs byte-identical at every --jobs level. *)
and bus = {
  mutable granted_to : Types.node_id option;
  mutable rr : int;
  waiting : bool array;
  mutable members : t array;  (* back-pointers, filled at machine creation *)
}

let home_of line = Types.Layout.home_of_line line

let mem_read t line = match Hashtbl.find_opt t.mem line with Some v -> v | None -> 0

let mem_write t line value = Hashtbl.replace t.mem line value

(* The L2 encoding of the rules' four states (see snoop.mli). *)
let copy_of_entry ({ state; dirty; _ } : L2.entry) : Rules.copy =
  match (state, dirty) with Shared, _ -> S | Exclusive, false -> E | Exclusive, true -> M

let copy_of = function None -> Rules.I | Some entry -> copy_of_entry entry

let entry_of (copy : Rules.copy) value : L2.entry =
  match copy with
  | S -> { state = Shared; value; dirty = false }
  | E | M -> { state = Exclusive; value; dirty = copy = M }
  | I -> invalid_arg "Snoop.entry_of: I is an absent line"

(* Commit a store's new version over the resident line. *)
let write_version t line =
  let version = t.next_version () in
  L2.set t.l2 line
    (entry_of (Rules.fill t.config.protocol Types.Store ~others:false) version);
  version

(* ------------------------------------------------------------------ *)
(* Messaging and timing helpers                                        *)
(* ------------------------------------------------------------------ *)

let send t ~dst msg =
  Probe.send t.probe ~src:t.id ~dst msg;
  Hub_link.send t.hub ~dst
    ~bytes:(Message.wire_bytes ~line_bytes:t.config.line_bytes msg)
    msg

let dram_delay t =
  let now = Sim.now t.sim in
  Pcc_memory.Dram.access t.dram ~now - now

(* ------------------------------------------------------------------ *)
(* Bus arbitration                                                     *)
(* ------------------------------------------------------------------ *)

let rec try_grant bus =
  if bus.granted_to = None then begin
    let n = Array.length bus.waiting in
    let granted = ref false in
    let i = ref 0 in
    while (not !granted) && !i < n do
      let candidate = (bus.rr + !i) mod n in
      if bus.waiting.(candidate) then begin
        granted := true;
        bus.waiting.(candidate) <- false;
        bus.rr <- (candidate + 1) mod n;
        bus.granted_to <- Some candidate;
        let node = bus.members.(candidate) in
        (* arbitration costs one hub traversal *)
        Sim.schedule node.sim ~delay:node.config.hub_latency (fun () ->
            on_grant node)
      end;
      incr i
    done
  end

and release_bus t =
  assert (t.bus.granted_to = Some t.id);
  t.bus.granted_to <- None;
  try_grant t.bus

and request_bus t =
  t.bus.waiting.(t.id) <- true;
  try_grant t.bus

(* ------------------------------------------------------------------ *)
(* Requester side: grant, completion, commit                           *)
(* ------------------------------------------------------------------ *)

(* The command is chosen at grant time, not submit time: a store that
   held an S copy when it missed may have lost it to another node's
   Bus_rdx while waiting for the bus, turning its upgrade into a full
   read-exclusive. *)
and on_grant t =
  match t.pending with
  | None ->
      (* the operation vanished (cannot happen without crashes); free the
         bus rather than wedging the machine *)
      release_bus t
  | Some p ->
      p.granted <- true;
      p.resp_needed <- t.config.nodes - 1;
      let line = p.line in
      let tid = p.tid in
      let cmd =
        match Rules.command p.kind (copy_of (L2.peek t.l2 line)) with
        | Rd -> Message.Bus_rd { line; tid }
        | Rdx -> Message.Bus_rdx { line; tid }
        | Upgr ->
            p.upgrade <- true;
            Message.Bus_upgr { line; tid }
      in
      for dst = 0 to t.config.nodes - 1 do
        if dst <> t.id then send t ~dst cmd
      done;
      if home_of line = t.id && not p.upgrade then begin
        (* the local memory read proceeds in parallel with the snoop *)
        let delay = dram_delay t in
        Sim.schedule t.sim ~delay (fun () ->
            match t.pending with
            | Some q when q == p ->
                p.mem_value <- Some (mem_read t line);
                try_complete t p
            | Some _ | None -> ())
      end;
      try_complete t p (* a 1-node machine has no snoopers to wait for *)

(* Victims displaced by the fill: dirty exclusive lines must reach home
   memory before the bus is released (a later Bus_rd would otherwise
   read the stale word); clean lines drop silently. *)
and handle_victim t p = function
  | None -> ()
  | Some L2.{ victim_line; victim_entry } -> (
      match Rules.evict (copy_of_entry victim_entry) with
      | Drop -> ()
      | Writeback ->
          let value = victim_entry.value in
          t.stats.writebacks <- t.stats.writebacks + 1;
          if home_of victim_line = t.id then mem_write t victim_line value
          else begin
            p.wb_expected <- p.wb_expected + 1;
            send t ~dst:(home_of victim_line) (Bus_wb { line = victim_line; value })
          end)

(* the line's data: the owner's flush when an owner answered, home
   memory otherwise (guarded by [data_ready]) *)
and data p =
  match (p.owner_seen, p.supplied, p.mem_value) with
  | true, Some v, _ | false, _, Some v -> v
  | _ -> assert false

(* a store's fill holds the old data until the commit writes the new
   version *)
and do_fill t p =
  p.filled <- true;
  let copy =
    Rules.fill t.config.protocol p.kind ~others:(p.shared_seen || p.owner_seen)
  in
  handle_victim t p (L2.fill t.l2 p.line (entry_of copy (data p)))

and try_complete t p =
  if p.granted && p.resp_needed = 0 then begin
    let data_ready =
      p.upgrade
      || (if p.owner_seen then p.supplied <> None else p.mem_value <> None)
    in
    if data_ready then begin
      if (not p.filled) && not p.upgrade then do_fill t p;
      if p.wb_received >= p.wb_expected then commit t p
    end
  end

and commit t p =
  let miss =
    (* the bus is one shared hop: a transaction whose data came from the
       requester's own memory is local, everything else is the 2-hop
       command/response round trip (3-hop forwarding never happens on a
       bus) *)
    if home_of p.line = t.id && not p.owner_seen then Types.Local_mem
    else Types.Remote_2hop
  in
  let value = match p.kind with Types.Load -> data p | Types.Store -> write_version t p.line in
  t.pending <- None;
  release_bus t;
  Probe.commit t.probe ~node:t.id ~kind:p.kind ~line:p.line ~value ~started:p.started
    ~l2_hit:false ~miss:(Some miss);
  p.on_commit ()

(* ------------------------------------------------------------------ *)
(* Snooper side                                                        *)
(* ------------------------------------------------------------------ *)

(* One snooper's reaction to a bus command: the rules give its next
   state and what it does with its data.  Dirty data owed to home memory
   is written here when this node is home, rides the requester's flush
   when the requester is home, and otherwise goes home in a flush the
   requester waits for before releasing the bus.  Every snooper answers;
   the home's answer to a read carries the memory word, read in parallel
   with the snoop and so delayed by the DRAM access. *)
let on_bus_cmd t (cmd : Rules.cmd) ~requester ~tid line =
  let entry = L2.peek t.l2 line in
  let copy = copy_of entry in
  let value = match entry with Some e -> e.value | None -> 0 in
  let next = Rules.snoop t.config.inject_fault cmd copy in
  if next <> copy then begin
    match next with
    | I -> ignore (L2.invalidate t.l2 line)
    | S | E | M -> L2.set t.l2 line (entry_of next value)
  end;
  let supply = Rules.supply cmd copy in
  let home = home_of line in
  let owed = supply = Flush_home in
  let flushed_home = owed && home <> t.id && home <> requester in
  if owed && home = t.id then mem_write t line value;
  if flushed_home then send t ~dst:home (Bus_flush { line; value; tid; requester; dirty = true });
  if supply <> Keep then
    send t ~dst:requester
      (Bus_flush { line; value; tid; requester; dirty = owed && home = requester });
  let shared = cmd = Rd && next <> I and owner = supply <> Keep in
  if home = t.id && cmd <> Upgr then
    Sim.schedule t.sim ~delay:(dram_delay t) (fun () ->
        send t ~dst:requester
          (Snoop_resp
             { line; tid; shared; owner; flushed_home; mem_value = Some (mem_read t line) }))
  else
    send t ~dst:requester
      (Snoop_resp { line; tid; shared; owner; flushed_home; mem_value = None })

let on_bus_flush t ~line ~value ~tid ~requester ~dirty =
  if dirty && home_of line = t.id then mem_write t line value;
  if requester = t.id then (
    match t.pending with
    | Some p when p.tid = tid && p.line = line ->
        p.supplied <- Some value;
        try_complete t p
    | Some _ | None -> ())
  else if dirty && home_of line = t.id then
    (* route the memory-update confirmation to the bus holder *)
    send t ~dst:requester (Bus_wb_ack { line; tid })

let on_snoop_resp t ~line ~tid ~shared ~owner ~flushed_home ~mem_value =
  match t.pending with
  | Some p when p.tid = tid && p.line = line ->
      p.resp_needed <- p.resp_needed - 1;
      if shared then p.shared_seen <- true;
      if owner then p.owner_seen <- true;
      if flushed_home then p.wb_expected <- p.wb_expected + 1;
      (match mem_value with Some v -> p.mem_value <- Some v | None -> ());
      try_complete t p
  | Some _ | None -> ()

let on_bus_wb t ~src ~line ~value =
  mem_write t line value;
  send t ~dst:src (Bus_wb_ack { line; tid = 0 })

let on_bus_wb_ack t =
  (* credits the bus holder's write-back debt, whichever line it was
     for: at most one transaction is in flight machine-wide *)
  match t.pending with
  | Some p ->
      p.wb_received <- p.wb_received + 1;
      try_complete t p
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let handle_message t ~src (msg : Message.t) =
  match msg with
  | Bus_rd { line; tid } -> on_bus_cmd t Rd ~requester:src ~tid line
  | Bus_rdx { line; tid } -> on_bus_cmd t Rdx ~requester:src ~tid line
  | Bus_upgr { line; tid } -> on_bus_cmd t Upgr ~requester:src ~tid line
  | Bus_flush { line; value; tid; requester; dirty } ->
      on_bus_flush t ~line ~value ~tid ~requester ~dirty
  | Snoop_resp { line; tid; shared; owner; flushed_home; mem_value } ->
      on_snoop_resp t ~line ~tid ~shared ~owner ~flushed_home ~mem_value
  | Bus_wb { line; value } -> on_bus_wb t ~src ~line ~value
  | Bus_wb_ack _ -> on_bus_wb_ack t
  | Get_shared _ | Get_exclusive _ | Writeback _ | Writeback_ack _ | Inval _
  | Intervention _ | Transfer _ | Transfer_ack _ | Data_shared _ | Data_exclusive _
  | Inv_ack _ | Shared_writeback _ | Nack _ | Delegate _ | New_home _
  | Fwd_get_shared _ | Recall _ | Recall_nack _ | Undelegate _ | Update _
  | Update_flush _ | Update_flush_ack _ ->
      invalid_arg "Snoop.handle: directory-protocol message on the snooping backend"

(* ------------------------------------------------------------------ *)
(* Processor interface                                                 *)
(* ------------------------------------------------------------------ *)

let start_miss t ~kind ~line ~on_commit =
  let p =
    {
      kind;
      line;
      started = Sim.now t.sim;
      tid = t.next_tid;
      on_commit;
      granted = false;
      upgrade = false;
      resp_needed = 0;
      shared_seen = false;
      owner_seen = false;
      supplied = None;
      mem_value = None;
      wb_expected = 0;
      wb_received = 0;
      filled = false;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.pending <- Some p;
  request_bus t

let submit t ~kind ~line ~on_commit =
  if t.pending <> None then invalid_arg "Snoop.submit: operation already pending";
  let started = Sim.now t.sim in
  Probe.issue t.probe ~node:t.id ~kind ~line;
  (match kind with
  | Types.Load -> t.stats.loads <- t.stats.loads + 1
  | Types.Store -> t.stats.stores <- t.stats.stores + 1);
  let entry = L2.lookup t.l2 line in
  match Rules.access kind (copy_of entry) with
  | Miss -> start_miss t ~kind ~line ~on_commit
  | Hit | Silent_upgrade -> (
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      match kind with
      | Types.Load ->
          let value = match entry with Some e -> e.value | None -> assert false in
          Sim.schedule t.sim ~delay:t.config.l2_hit_latency (fun () ->
              Probe.commit t.probe ~node:t.id ~kind:Types.Load ~line ~value ~started
                ~l2_hit:true ~miss:None;
              on_commit ())
      | Types.Store ->
          Sim.schedule t.sim ~delay:t.config.l2_hit_latency (fun () ->
              match Rules.access Types.Store (copy_of (L2.peek t.l2 line)) with
              | Hit | Silent_upgrade ->
                  let value = write_version t line in
                  Probe.commit t.probe ~node:t.id ~kind:Types.Store ~line ~value ~started
                    ~l2_hit:true ~miss:None;
                  on_commit ()
              | Miss ->
                  (* lost exclusivity in the hit window: take the miss path *)
                  start_miss t ~kind ~line ~on_commit))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create_node ~probe ~config ~sim ~network ~id ~stats ~next_version ~rng ~bus () =
  let l2 =
    L2.create ~rng:(Pcc_engine.Rng.split rng) ~lines:(Config.l2_lines config)
      ~ways:config.l2_ways ()
  in
  let handler = ref (fun ~src:_ (_ : Message.t) -> assert false) in
  let hub =
    Probe.hub_link probe ~config ~network ~id ~deliver:(fun ~src msg ->
        !handler ~src msg)
  in
  let t =
    {
      config;
      sim;
      hub;
      id;
      stats;
      next_version;
      l2;
      dram = Pcc_memory.Dram.create ~latency:config.dram_latency ();
      mem = Hashtbl.create 64;
      bus;
      probe;
      next_tid = 0;
      pending = None;
    }
  in
  handler := (fun ~src msg -> handle_message t ~src msg);
  t

let create_machine ~probe ~(config : Config.t) ~sim ~network ~stats ~next_version ~rng
    () =
  if config.protocol = Types.Adaptive then
    invalid_arg "Snoop.create_machine: adaptive config on the snooping backend";
  if Config.crash_capable config then
    invalid_arg "Snoop.create_machine: fail-stop crashes are not supported";
  let bus =
    {
      granted_to = None;
      rr = 0;
      waiting = Array.make config.nodes false;
      members = [||];
    }
  in
  let nodes =
    Array.init config.nodes (fun id ->
        create_node ~probe ~config ~sim ~network ~id ~stats ~next_version
          ~rng:(Pcc_engine.Rng.split rng)
          ~bus ())
  in
  bus.members <- nodes;
  nodes

(* ------------------------------------------------------------------ *)
(* Inspection and invariants                                           *)
(* ------------------------------------------------------------------ *)

let describe_line line =
  Printf.sprintf "line %d@%d" (Types.Layout.index_of_line line)
    (Types.Layout.home_of_line line)

(* Machine-wide invariants over a quiesced system: the bus is free and
   no transaction is pending, every line satisfies the rules' per-line
   invariants, and no Shared copy is dirty (the one L2 encoding that
   names none of the four states). *)
let check_invariants nodes =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let n = Array.length nodes in
  if n > 0 then Option.iter (err "bus still granted to node %d after drain") nodes.(0).bus.granted_to;
  (* each resident line's copies and values across the machine *)
  let lines = Hashtbl.create 64 in
  Array.iter
    (fun node ->
      if node.bus.waiting.(node.id) then
        err "node %d still waiting for the bus after drain" node.id;
      if node.pending <> None then err "node %d has a pending transaction after drain" node.id;
      L2.iter
        (fun line (entry : L2.entry) ->
          if entry.state = Shared && entry.dirty then
            err "%s: node %d holds a dirty Shared copy" (describe_line line) node.id;
          let copies, values =
            match Hashtbl.find_opt lines line with
            | Some cv -> cv
            | None ->
                let cv = (Array.make n Rules.I, Array.make n 0) in
                Hashtbl.add lines line cv;
                cv
          in
          copies.(node.id) <- copy_of_entry entry;
          values.(node.id) <- entry.value)
        node.l2)
    nodes;
  let invariants = if n > 0 then Rules.invariants nodes.(0).config.protocol else [] in
  Hashtbl.fold (fun line cv acc -> (line, cv) :: acc) lines []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (line, (copies, values)) ->
         let mem = mem_read nodes.(home_of line) line in
         List.iter
           (fun (name, holds) ->
             if not (holds copies values mem) then
               err "%s: %s violated (mem=%d%s)" (describe_line line) name mem
                 (String.concat ""
                    (List.filteri (fun i _ -> copies.(i) <> Rules.I)
                       (List.init n (fun i ->
                            Printf.sprintf " n%d:%s%d" i (Rules.to_string copies.(i))
                              values.(i))))))
           invariants);
  List.rev !errors

module Backend = struct
  type node = t

  let id t = t.id

  let submit = submit

  let busy t = t.pending <> None

  let l2_state t line = L2.peek t.l2 line

  let iter_l2 t f = L2.iter f t.l2

  let pending_op t = match t.pending with Some p -> Some (p.kind, p.line) | None -> None

  let pending_info t =
    match t.pending with Some p -> Some (p.kind, p.line, p.started, 0) | None -> None

  let check_invariants = check_invariants

  (* a bus has no remote access cache, delegation or delegate cache *)
  let delegated_line_count _ = 0

  let rac_occupancy _ = 0

  let rac_capacity _ = 0

  let rac_updates_consumed _ = 0

  let rac_updates_wasted _ = 0

  let rac_pressure _ = 0

  let deledc_pressure _ = 0

  let hub_in_flight t = Hub_link.in_flight t.hub

  let link_retransmits t = Hub_link.retransmits_by_link t.hub
end
