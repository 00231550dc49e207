(* The mcheck workload: Checker.run at jobs = 1 on the base adaptive
   3-node model and the MESI 3-node x 2-line model.  No simulator.

   The traced run wraps each Checker.MODEL: successors (and its
   partial-order variant), encode and every invariant are timed from
   outside the checker, so the rest of the checker's time (digest,
   visited set, merge) is the total minus the wrapped time. *)

open Pcc

type model = {
  m_name : string;
  make : unit -> (module Checker.MODEL);
  full_states : int;  (* exhaustive state count, pinned *)
}

let models ~tiny =
  let nodes = if tiny then 2 else 3 in
  [
    {
      m_name = Printf.sprintf "adaptive-base-%dn" nodes;
      make =
        (fun () ->
          Protocol_model.make
            {
              Protocol_model.default_params with
              nodes;
              enable_delegation = false;
              enable_updates = false;
            });
      full_states = (if tiny then 8_701 else 1_131_974);
    };
    {
      m_name = Printf.sprintf "mesi-%dn-2line" nodes;
      make =
        (fun () ->
          Snoop_model.make
            { Snoop_model.default_params with nodes; lines = 2; variant = Types.Mesi });
      full_states = (if tiny then 3_497 else 557_053);
    };
  ]

type probe = {
  mutable succ_ns : int;
  mutable encode_ns : int;
  mutable encode_bytes : int;
  mutable encodes : int;
  mutable inv_ns : int;
}

let probe () = { succ_ns = 0; encode_ns = 0; encode_bytes = 0; encodes = 0; inv_ns = 0 }

let wrapped_ns p = p.succ_ns + p.encode_ns + p.inv_ns

let timed f x acc =
  let t0 = Hostclock.ns () in
  let r = f x in
  acc (Hostclock.ns () - t0);
  r

let wrap (type s) (module M : Checker.MODEL with type state = s) p :
    (module Checker.MODEL with type state = s) =
  (module struct
    type state = s

    let initial = M.initial

    let successors s = timed M.successors s (fun d -> p.succ_ns <- p.succ_ns + d)

    let por =
      Option.map (fun f s -> timed f s (fun d -> p.succ_ns <- p.succ_ns + d)) M.por

    let invariants =
      List.map
        (fun (name, holds) -> (name, fun s -> timed holds s (fun d -> p.inv_ns <- p.inv_ns + d)))
        M.invariants

    let is_quiescent = M.is_quiescent

    let encode s =
      let e = timed M.encode s (fun d -> p.encode_ns <- p.encode_ns + d) in
      p.encode_bytes <- p.encode_bytes + String.length e;
      p.encodes <- p.encodes + 1;
      e

    let pp = M.pp
  end)

(* One exploration's outcome, state-type free. *)
type explored = {
  states : int;
  transitions : int;
  complete : bool;
  problem : string option;  (* a violation or deadlock *)
  ns : int;  (* monotonic time of Checker.run *)
}

let explore ?probe ?max_states m =
  let (module M) = m.make () in
  let model =
    match probe with
    | None -> (module M : Checker.MODEL with type state = M.state)
    | Some p -> wrap (module M) p
  in
  let t0 = Hostclock.ns () in
  let outcome = Checker.run model ?max_states ~jobs:1 () in
  let ns = Hostclock.ns () - t0 in
  let of_stats (s : Checker.stats) problem =
    {
      states = s.Checker.states_explored;
      transitions = s.Checker.transitions;
      complete = s.Checker.complete;
      problem;
      ns;
    }
  in
  match outcome with
  | Checker.Ok s -> of_stats s None
  | Checker.Invariant_violation { invariant; stats; _ } ->
      of_stats stats (Some (Printf.sprintf "%s: invariant %S violated" m.m_name invariant))
  | Checker.Deadlock { stats; _ } -> of_stats stats (Some (m.m_name ^ ": deadlock"))

(* encode followed by Digest.string over states a few transitions deep,
   indexed cyclically: the isolated primitive behind the visited set. *)
let encode_digest m =
  let (module M) = m.make () in
  let rec walk acc s depth =
    if depth = 0 then acc
    else
      match M.successors s with
      | [] -> acc
      | succs ->
          let _, next = List.nth succs (depth mod List.length succs) in
          walk (next :: acc) next (depth - 1)
  in
  let states = Array.of_list (List.concat_map (fun s -> walk [ s ] s 12) M.initial) in
  fun i -> Digest.string (M.encode states.(i mod Array.length states))
