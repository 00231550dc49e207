(* The traced run's per-layer ledger, built from outside the program.

   Hooks are registered through System's public observer interface in
   a fixed order, relying on hooks firing in registration order:

     head hooks (this module)      post-event, recv, issue
     [stamp begin] Audit   [stamp end]
     [stamp begin] Recorder [stamp end]
     tail hook (this module)       post-event

   Event time is cut into segments at the head hooks: a segment opens
   at the tail post-event hook of the previous event (or at a recv or
   issue hook) and closes at the next recv/issue hook or at the head
   post-event hook.  A segment opened by [on_recv] is that message
   class's handler self time; one opened by [on_issue] is issue time;
   the rest ("other") covers timeouts, DRAM completions, link acks,
   queue pops and the feed.  Observer time measured by the stamp pairs
   inside a segment is subtracted from it. *)

open Pcc

let other = -1

let issue = -2

type observer = { mutable o_t0 : int; mutable o_ns : int }

type t = {
  recv_ns : int array;
  recv_n : int array;
  mutable issue_ns : int;
  mutable issues : int;
  mutable other_ns : int;
  mutable seg_kind : int;
  mutable seg_start : int;
  mutable seg_obs : int;  (* [obs_ns] when the segment opened *)
  mutable obs_ns : int;
  audit : observer;
  recorder : observer;
  mutable events : int;
  mutable peak_unacked : int;
  mutable pull_ns : int;
  mutable run_ns : int;
}

let create () =
  {
    recv_ns = Array.make Message.class_count 0;
    recv_n = Array.make Message.class_count 0;
    issue_ns = 0;
    issues = 0;
    other_ns = 0;
    seg_kind = other;
    seg_start = 0;
    seg_obs = 0;
    obs_ns = 0;
    audit = { o_t0 = 0; o_ns = 0 };
    recorder = { o_t0 = 0; o_ns = 0 };
    events = 0;
    peak_unacked = 0;
    pull_ns = 0;
    run_ns = 0;
  }

let close t now =
  let self = now - t.seg_start - (t.obs_ns - t.seg_obs) in
  let k = t.seg_kind in
  if k >= 0 then t.recv_ns.(k) <- t.recv_ns.(k) + self
  else if k = issue then t.issue_ns <- t.issue_ns + self
  else t.other_ns <- t.other_ns + self

let open_ t kind now =
  t.seg_kind <- kind;
  t.seg_start <- now;
  t.seg_obs <- t.obs_ns

let attach_head t sys =
  System.on_post_event sys (fun () ->
      close t (Hostclock.ns ());
      t.events <- t.events + 1;
      (* sampled: the gauge walks every node's link *)
      if t.events land 63 = 0 then begin
        let unacked = System.link_in_flight sys in
        if unacked > t.peak_unacked then t.peak_unacked <- unacked
      end);
  System.on_recv sys (fun ~time:_ ~src:_ ~dst:_ msg ->
      let now = Hostclock.ns () in
      close t now;
      let k = Message.class_index msg in
      t.recv_n.(k) <- t.recv_n.(k) + 1;
      open_ t k now);
  System.on_issue sys (fun ~time:_ ~node:_ ~kind:_ ~line:_ ->
      let now = Hostclock.ns () in
      close t now;
      t.issues <- t.issues + 1;
      open_ t issue now)

let attach_tail t sys =
  System.on_post_event sys (fun () -> open_ t other (Hostclock.ns ()))

(* Every hook kind an observer may register on, bracketed by a begin
   stamp registered before its [attach] and an end stamp after. *)
let stamp_hooks sys f =
  System.on_post_event sys (fun () -> f ());
  System.on_recv sys (fun ~time:_ ~src:_ ~dst:_ _ -> f ());
  System.on_issue sys (fun ~time:_ ~node:_ ~kind:_ ~line:_ -> f ());
  System.on_message sys (fun ~time:_ ~src:_ ~dst:_ _ -> f ());
  System.on_commit sys (fun _ -> f ());
  System.on_retransmit sys (fun ~time:_ ~src:_ ~dst:_ -> f ())

let bracket t o sys attach =
  stamp_hooks sys (fun () -> o.o_t0 <- Hostclock.ns ());
  let r = attach sys in
  stamp_hooks sys (fun () ->
      let d = Hostclock.ns () - o.o_t0 in
      o.o_ns <- o.o_ns + d;
      t.obs_ns <- t.obs_ns + d);
  r

let wrap_feed t (feed : Op_stream.t) =
  {
    feed with
    Op_stream.next =
      (fun node ->
        let t0 = Hostclock.ns () in
        let op = feed.Op_stream.next node in
        t.pull_ns <- t.pull_ns + (Hostclock.ns () - t0);
        op);
  }

(* Bracket one [System.run_stream]: the first segment of the run opens
   here. *)
let start t = open_ t other (Hostclock.ns ())

let stop t ~t0 = t.run_ns <- t.run_ns + (Hostclock.ns () - t0)
