open Pcc_core
module Sim = Pcc_engine.Simulator

exception
  Violation of { message : string; time : int; events : Trace.event list }

type t = {
  sys : System.t;
  order : Order.t;
  ring : Trace.Ring.t;
  dirty : (Types.line, unit) Hashtbl.t;
  full_check_period : int;
  mutable events_count : int;
}

let describe_line line =
  Printf.sprintf "%d@%d" (Types.Layout.index_of_line line)
    (Types.Layout.home_of_line line)

let raise_violation t message =
  raise
    (Violation
       {
         message;
         time = Sim.now (System.sim t.sys);
         events = Trace.Ring.to_list t.ring;
       })

(* ------------------------------------------------------------------ *)
(* Per-line structural invariants                                      *)
(* ------------------------------------------------------------------ *)

let check_line t line =
  let nodes = System.nodes t.sys in
  let errors = ref [] in
  let err fmt =
    Printf.ksprintf (fun s -> errors := Printf.sprintf "line %s: %s" (describe_line line) s :: !errors) fmt
  in
  let home = nodes.(Types.Layout.home_of_line line) in
  let dir_entry = Directory.find (Node.directory home) line in
  let l2_copies =
    Array.to_list nodes
    |> List.filter_map (fun node ->
           match Node.l2_state node line with
           | Some e -> Some (Node.id node, e)
           | None -> None)
  in
  let rac_copies =
    Array.to_list nodes
    |> List.filter_map (fun node ->
           match Node.rac_value node line with
           | Some v -> Some (Node.id node, v)
           | None -> None)
  in
  let producers =
    Array.to_list nodes
    |> List.filter_map (fun node ->
           match Node.producer_view node line with
           | Some view -> Some (Node.id node, view)
           | None -> None)
  in
  let holder_ids =
    List.sort_uniq compare (List.map fst l2_copies @ List.map fst rac_copies)
  in
  let ids_string ids = String.concat "," (List.map string_of_int ids) in
  (* 1: single writer *)
  let exclusive_holders =
    List.filter_map
      (fun (n, (e : L2.entry)) -> if e.state = L2.Exclusive then Some n else None)
      l2_copies
  in
  if List.length exclusive_holders > 1 then
    err "multiple exclusive holders (%s)" (ids_string exclusive_holders);
  (* 2: the exclusive holder is accounted for by the home directory *)
  List.iter
    (fun n ->
      match dir_entry with
      | None -> err "node %d holds exclusive but the home has no directory entry" n
      | Some e ->
          let accounted =
            match e.Directory.state with
            | Directory.Excl | Directory.Busy_shared | Directory.Dele -> e.owner = n
            | Directory.Busy_excl -> e.owner = n || e.requester = n
            | Directory.Unowned | Directory.Shared_s -> false
          in
          if not accounted then
            err "node %d holds exclusive but the home directory does not account for it" n)
    exclusive_holders;
  (* 3: delegation structure *)
  if List.length producers > 1 then
    err "multiple producer-table entries (%s)" (ids_string (List.map fst producers));
  List.iter
    (fun (p, _view) ->
      (match dir_entry with
      | Some { Directory.state = Directory.Dele | Directory.Busy_excl; owner; _ }
        when owner = p ->
          ()
      | Some _ | None ->
          err "node %d holds a producer entry the home directory does not reflect" p);
      if Node.rac_value nodes.(p) line = None then
        err "node %d is the delegated producer but its RAC has no backing copy" p
      else if not (Node.rac_pinned nodes.(p) line) then
        err "node %d is the delegated producer but its RAC backing copy is not pinned" p)
    producers;
  Array.iter
    (fun node ->
      let n = Node.id node in
      if Node.rac_pinned node line && not (List.mem_assoc n producers) then
        err "node %d holds a pinned RAC entry without a producer-table entry" n)
    nodes;
  (* 4: directory-state coverage and value coherence *)
  (match dir_entry with
  | None -> if holder_ids <> [] then err "copies at %s but no directory entry" (ids_string holder_ids)
  | Some e -> (
      let check_covered vector ~who =
        List.iter
          (fun n ->
            if not (Nodeset.mem vector n) then
              err "node %d holds a copy not covered by %s's sharing vector" n who)
          holder_ids
      in
      let check_values expected ~who =
        List.iter
          (fun (n, (l2 : L2.entry)) ->
            if l2.value <> expected then
              err "node %d L2 value %d differs from %s value %d" n l2.value who expected)
          l2_copies;
        List.iter
          (fun (n, v) ->
            if v <> expected then
              err "node %d RAC value %d differs from %s value %d" n v who expected)
          rac_copies
      in
      match e.Directory.state with
      | Directory.Unowned ->
          if holder_ids <> [] then
            err "unowned at the home but copies exist at %s" (ids_string holder_ids)
      | Directory.Shared_s ->
          if exclusive_holders <> [] then err "exclusive copy while the home is shared";
          check_covered e.sharers ~who:"home";
          check_values e.mem_value ~who:"home memory"
      | Directory.Excl ->
          (* only once the owner actually holds the line: before that,
             invalidations to the previous sharers are still in flight *)
          if List.mem e.owner exclusive_holders then begin
            let foreign = List.filter (fun n -> n <> e.owner) holder_ids in
            if foreign <> [] then
              err "owner %d holds exclusive but copies remain at %s" e.owner
                (ids_string foreign)
          end
      | Directory.Busy_shared | Directory.Busy_excl -> ()
      | Directory.Dele -> (
          match List.assoc_opt e.owner producers with
          | None -> () (* delegation handshake in flight *)
          | Some view -> (
              match view.Node.view_state with
              | `Busy -> ()
              | `Exclusive ->
                  let foreign = List.filter (fun n -> n <> e.owner) holder_ids in
                  if foreign <> [] then
                    err "producer %d is write-exclusive but copies remain at %s" e.owner
                      (ids_string foreign)
              | `Shared -> (
                  check_covered view.view_sharers ~who:(Printf.sprintf "producer %d" e.owner);
                  match Node.rac_value nodes.(e.owner) line with
                  | Some backing -> check_values backing ~who:"producer RAC"
                  | None -> ())))));
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let check_lines t lines =
  List.iter
    (fun line ->
      match check_line t line with
      | [] -> ()
      | errors -> raise_violation t (String.concat "; " errors))
    lines

let known_lines t =
  let lines = Hashtbl.create 256 in
  let mark line = Hashtbl.replace lines line () in
  Array.iter
    (fun node ->
      Node.iter_l2 node (fun line _ -> mark line);
      Node.iter_rac node (fun line _ -> mark line);
      Node.iter_producers node (fun line _ -> mark line);
      Directory.iter (fun line _ -> mark line) (Node.directory node))
    (System.nodes t.sys);
  Hashtbl.fold (fun line () acc -> line :: acc) lines []

let check_all t = check_lines t (known_lines t)

(* ------------------------------------------------------------------ *)
(* Hook wiring                                                         *)
(* ------------------------------------------------------------------ *)

let on_post_event t () =
  t.events_count <- t.events_count + 1;
  if Hashtbl.length t.dirty > 0 then begin
    let lines = Hashtbl.fold (fun line () acc -> line :: acc) t.dirty [] in
    Hashtbl.reset t.dirty;
    check_lines t lines
  end;
  if t.events_count mod t.full_check_period = 0 then check_all t

let attach ?(ring_capacity = 64) ?(full_check_period = 10_000) sys =
  let t =
    {
      sys;
      order = Order.create ();
      ring = Trace.Ring.create ~capacity:ring_capacity;
      dirty = Hashtbl.create 64;
      full_check_period;
      events_count = 0;
    }
  in
  System.on_message sys (fun ~time ~src ~dst msg ->
      let line = Message.line_of msg in
      Trace.Ring.add t.ring
        (Trace.Msg { time; src; dst; cls = Message.class_name msg; line });
      Hashtbl.replace t.dirty line ());
  System.on_commit sys (fun (c : Probe.commit_event) ->
      Trace.Ring.add t.ring
        (Trace.Commit
           {
             time = c.c_time;
             node = c.c_node;
             kind = c.c_kind;
             line = c.c_line;
             value = c.c_value;
             started = c.c_started;
           });
      Hashtbl.replace t.dirty c.c_line ();
      try
        match c.c_kind with
        | Types.Store ->
            Order.record_store t.order ~node:c.c_node ~line:c.c_line ~value:c.c_value
              ~time:c.c_time
        | Types.Load ->
            Order.record_load t.order ~node:c.c_node ~line:c.c_line ~value:c.c_value
              ~started:c.c_started ~time:c.c_time
      with Order.Violation message -> raise_violation t message);
  System.on_crash sys (fun ~time:_ ~node ~phase ->
      (* detection fires after the recovery sweep, so the surviving value
         the order oracle rolls back to is the one recovery installed *)
      match phase with
      | System.Crash_detected ->
          Order.node_crashed t.order ~dead:node ~surviving:(fun line ->
              Node.surviving_value (System.nodes sys) line)
      | System.Crash_down | System.Crash_restarted -> ());
  System.on_post_event sys (fun () -> on_post_event t ());
  t

let order t = t.order

let events t = Trace.Ring.to_list t.ring

let events_seen t = t.events_count
