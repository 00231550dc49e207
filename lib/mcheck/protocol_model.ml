open Pcc_core

type bug = Skip_invals_on_delegate | No_poison_on_inval | Updates_without_resharing

type workload = Symmetric | Producer_consumer

type params = {
  nodes : int;
  lines : int;
      (* independent cache lines, each homed at node 0 with its own
         directory, channels, and per-node op budget.  Lines never share
         protocol state, which is exactly what makes per-line transition
         groups independent for partial-order reduction. *)
  workload : workload;
      (* Symmetric: every node nondeterministically loads or stores.
         Producer_consumer: line l has one designated producer
         (node 1 + l mod (nodes-1)) that only stores; every other node
         only loads.  This is the paper's sharing pattern, it still
         drives delegation and speculative updates, and it shrinks the
         per-line space enough that multi-line explorations at 4-5 nodes
         stay exhaustive.  Designated producers are distinguishable, so
         canonicalization only permutes the consumer nodes (and only
         lines with the same producer). *)
  max_ops_per_node : int;
  enable_delegation : bool;
  enable_updates : bool;
  channel_capacity : int;
      (* max in-flight messages per (src,dst) channel (per line).  Without
         a bound the space is infinite: a NACK/retry/forward cycle can
         deposit one extra hint message per round while deliveries lag.
         Bounding channels (as Murphi DASH models do) makes exploration
         finite; transitions that would overfill a channel are disabled. *)
  bug : bug option;
}

let default_params =
  {
    nodes = 3;
    lines = 1;
    workload = Symmetric;
    max_ops_per_node = 2;
    enable_delegation = true;
    enable_updates = true;
    channel_capacity = 3;
    bug = None;
  }

(* ------------------------------------------------------------------ *)
(* Model state                                                         *)
(* ------------------------------------------------------------------ *)

type cstate = CI | CS of int | CE of int

type pkind = PL | PW

type pend = {
  pkind : pkind;
  have_data : bool;
  acks : int;
  poisoned : bool;
  target : int;  (* where the current request attempt was sent *)
  tid : int;  (* transaction id echoed by replies; stale replies dropped *)
  deferred : (bool * int * int) list;
      (* interventions/transfers (is_transfer, requester, tid) received
         between the exclusive grant and the store commit, replayed after
         the commit *)
}

type prodst = PB | PEx | PSh

type prod = {
  pst : prodst;
  psharers : int;
  upds : int;
  recalled : bool;
  unflushed : int;
      (* nodes pushed to since the last flush; undelegation is fenced by a
         flush/flush-ack round on those channels, otherwise a stale update
         could land in a consumer's RAC after a post-undelegation writer
         invalidated it.  Updates themselves are fire-and-forget. *)
  fl_acks : int;  (* flush acknowledgments outstanding *)
}

type nst = {
  cache : cstate;
  rac : int option;
  prod : prod option;
  pend : pend option;
  hint : int option;
  done_ : int;
  last_seen : int;
  wbp : bool;
      (* writeback outstanding: interventions received while true belong
         to the epoch the writeback ends and are dropped; the home
         resolves the race and acknowledges the writeback *)
}

type msg =
  | MGetS of int  (* requester's transaction id, echoed by the reply *)
  | MGetX of int
  | MFwdS of int * int  (* requester, tid *)
  | MInval of int  (* ack target *)
  | MIntv of int * int  (* requester, tid *)
  | MTransfer of int * int
  | MDataS of int * int  (* value, tid *)
  | MDataE of int * int * int  (* value, acks expected, tid *)
  | MAck
  | MSwb of int * int  (* value, new sharer *)
  | MTack of int  (* new owner *)
  | MNack of Message.nack_reason * int  (* tid *)
  | MDelegate of int * int * int * int  (* sharers, value, acks expected, tid *)
  | MNewHome of int
  | MRecall
  | MUndele of int * int option * (int * int) option
      (* sharers, value, pending (writer, tid) *)
  | MUpdate of int
  | MFlush
  | MFlushAck
  | MWb of int
  | MWbAck

(* Channels between each (src, dst) pair are FIFO, as in the modeled
   NUMALink interconnect (and the simulator): [seq] orders messages within
   a pair and only the head-of-line message of each pair is deliverable.
   The speculative-update mechanism depends on this ordering — an update
   overtaken by a later invalidation from the same producer would strand a
   stale copy (the model checker finds this if delivery is unordered). *)
type packet = { src : int; dst : int; seq : int; msg : msg }

type state = {
  ns : nst array;
  dir : Directory.dstate;
  shr : int;
  own : int;
  req : int;
  req_tid : int;  (* pending requester's transaction id in Busy states *)
  mem : int;
  net : packet list;
  nextv : int;
  error : string option;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let home = 0

let bit n = 1 lsl n

let mem_bit mask n = mask land bit n <> 0

let add_bit mask n = mask lor bit n

let rem_bit mask n = mask land lnot (bit n)

let bits_list mask =
  let rec collect n acc =
    if n < 0 then acc else collect (n - 1) (if mem_bit mask n then n :: acc else acc)
  in
  collect 62 []

let with_node st n f =
  let ns = Array.copy st.ns in
  ns.(n) <- f ns.(n);
  { st with ns }

(* one past the highest sequence number on channel (src, dst) *)
let rec next_seq src dst seq = function
  | [] -> seq
  | p :: rest ->
      next_seq src dst (if p.src = src && p.dst = dst then max seq (p.seq + 1) else seq) rest

let post st = function
  | [] -> st
  | packets ->
      let net =
        List.fold_left
          (fun net p -> { p with seq = next_seq p.src p.dst 0 net } :: net)
          st.net packets
      in
      { st with net }

let remove_packet st packet =
  let rec drop = function
    | [] -> []
    | p :: rest -> if p == packet then rest else p :: drop rest
  in
  { st with net = drop st.net }

(* (src, dst, seq) is unique per packet, so this is the order polymorphic
   [compare] gives on whole packets. *)
let compare_packet a b =
  if a.src <> b.src then Int.compare a.src b.src
  else if a.dst <> b.dst then Int.compare a.dst b.dst
  else Int.compare a.seq b.seq

let rec sorted = function
  | a :: (b :: _ as rest) -> compare_packet a b < 0 && sorted rest
  | [] | [ _ ] -> true

(* Numbers each channel's packets of a sorted net from 0, sharing every
   packet and tail that already carries its number. *)
let rec renumber src dst counter = function
  | [] -> []
  | p :: rest as net ->
      let counter = if p.src = src && p.dst = dst then counter + 1 else 0 in
      let rest' = renumber p.src p.dst counter rest in
      if p.seq <> counter then { p with seq = counter } :: rest'
      else if rest' == rest then net
      else p :: rest'

(* Canonical form: per-pair sequence numbers are renumbered from 0 so
   states differing only by absolute sequence values coincide. *)
let norm st =
  let net = if sorted st.net then st.net else List.sort compare_packet st.net in
  let net = renumber (-1) (-1) 0 net in
  if net == st.net then st else { st with net }

let fail st message = { st with error = Some message }

(* ------------------------------------------------------------------ *)
(* Symmetry reduction                                                  *)
(* ------------------------------------------------------------------ *)

(* Non-home nodes are interchangeable (a Murphi "scalarset"): states that
   differ only by a permutation of nodes 1..n-1 are equivalent.  The
   canonical encoding is the minimum over all such permutations of the
   renamed, normalized state. *)

let rename_node perm n = if n < 0 then n else perm.(n)

let rename_mask perm mask =
  let rec go n acc =
    if n >= Array.length perm then acc
    else go (n + 1) (if mem_bit mask n then add_bit acc perm.(n) else acc)
  in
  go 0 0

let rename_msg perm = function
  | MFwdS (r, tid) -> MFwdS (rename_node perm r, tid)
  | MInval r -> MInval (rename_node perm r)
  | MIntv (r, tid) -> MIntv (rename_node perm r, tid)
  | MTransfer (r, tid) -> MTransfer (rename_node perm r, tid)
  | MSwb (v, ns) -> MSwb (v, rename_node perm ns)
  | MTack o -> MTack (rename_node perm o)
  | MDelegate (sharers, v, a, tid) -> MDelegate (rename_mask perm sharers, v, a, tid)
  | MNewHome h -> MNewHome (rename_node perm h)
  | MUndele (sharers, v, pending) ->
      MUndele
        ( rename_mask perm sharers,
          v,
          Option.map (fun (r, tid) -> (rename_node perm r, tid)) pending )
  | ( MGetS _ | MGetX _ | MDataS _ | MDataE _ | MAck | MNack _ | MRecall | MUpdate _
    | MFlush | MFlushAck | MWb _ | MWbAck ) as m ->
      m

let rename_state perm st =
  let ns = Array.make (Array.length st.ns) st.ns.(0) in
  Array.iteri
    (fun i node ->
      ns.(perm.(i)) <-
        {
          node with
          prod =
            Option.map
              (fun p ->
                {
                  p with
                  psharers = rename_mask perm p.psharers;
                  upds = rename_mask perm p.upds;
                  unflushed = rename_mask perm p.unflushed;
                })
              node.prod;
          pend =
            Option.map
              (fun p ->
                {
                  p with
                  target = rename_node perm p.target;
                  deferred =
                    List.map
                      (fun (t, r, tid) -> (t, rename_node perm r, tid))
                      p.deferred;
                })
              node.pend;
          hint = Option.map (rename_node perm) node.hint;
        })
    st.ns;
  let net =
    List.map
      (fun p ->
        {
          p with
          src = rename_node perm p.src;
          dst = rename_node perm p.dst;
          msg = rename_msg perm p.msg;
        })
      st.net
  in
  {
    st with
    ns;
    net;
    shr = rename_mask perm st.shr;
    own = rename_node perm st.own;
    req = rename_node perm st.req;
  }

(* All permutations of fixed+1..n-1; nodes 0..fixed map to themselves.
   [fixed = 0] fixes only the home — the full symmetric group over the
   remote nodes.  The producer-consumer workload additionally fixes the
   designated producers (they are distinguishable by behaviour). *)
let permutations_fixing ~fixed n =
  let rec perms = function
    | [] -> [ [] ]
    | items ->
        List.concat_map
          (fun x ->
            List.map (fun rest -> x :: rest) (perms (List.filter (( <> ) x) items)))
          items
  in
  List.map
    (fun order -> Array.of_list (List.init (fixed + 1) Fun.id @ order))
    (perms (List.init (n - 1 - fixed) (fun i -> i + fixed + 1)))

(* All permutations of 1..n-1 (node 0, the home, is fixed). *)
let node_permutations n = permutations_fixing ~fixed:0 n

(* The designated writer of line [l] under the producer-consumer
   workload: remote nodes take turns line by line. *)
let producer_of_line params l = 1 + (l mod (params.nodes - 1))

let model_permutations params =
  match params.workload with
  | Symmetric -> node_permutations params.nodes
  | Producer_consumer ->
      let fixed = min (params.nodes - 1) params.lines in
      permutations_fixing ~fixed params.nodes

(* ------------------------------------------------------------------ *)
(* Commit helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* A read is coherent if each node observes the (globally serialized)
   write order monotonically. *)
let commit_read st n v ~cache_fill =
  let node = st.ns.(n) in
  let st =
    if v < node.last_seen then
      fail st (Printf.sprintf "node %d read value %d after observing %d" n v node.last_seen)
    else st
  in
  with_node st n (fun node ->
      {
        node with
        pend = None;
        done_ = node.done_ + 1;
        last_seen = max v node.last_seen;
        cache =
          (match (cache_fill, node.cache) with
          | true, CI -> CS v
          | true, other -> other
          | false, other -> other);
      })

let commit_store st n =
  let v = st.nextv + 1 in
  let st = { st with nextv = v } in
  with_node st n (fun node ->
      {
        node with
        pend = None;
        done_ = node.done_ + 1;
        last_seen = v;
        cache = CE v;
        rac = (match node.prod with Some _ -> node.rac | None -> None);
        prod =
          (match node.prod with
          | Some p -> Some { p with pst = PEx }
          | None -> None);
      })

(* Owner-side servicing of an intervention/transfer against a committed
   exclusive (or downgraded shared) copy. *)
let intervention_now st n requester tid =
  let node = st.ns.(n) in
  match node.cache with
  | CE v | CS v ->
      let st = with_node st n (fun node -> { node with cache = CS v }) in
      post st
        [
          { src = n; dst = requester; seq = 0; msg = MDataS (v, tid) };
          { src = n; dst = home; seq = 0; msg = MSwb (v, requester) };
        ]
  | CI -> st (* writeback race; the home resolves it *)

let transfer_now st n requester tid =
  let node = st.ns.(n) in
  match node.cache with
  | CE v | CS v ->
      let st = with_node st n (fun node -> { node with cache = CI; rac = None }) in
      post st
        [
          { src = n; dst = requester; seq = 0; msg = MDataE (v, 0, tid) };
          { src = n; dst = home; seq = 0; msg = MTack requester };
        ]
  | CI -> st

(* ------------------------------------------------------------------ *)
(* Producer-side actions                                               *)
(* ------------------------------------------------------------------ *)

let fence_needed p = p.unflushed <> 0 || p.fl_acks > 0

(* Post flush markers chasing the pushed updates; a no-op when a flush is
   already in flight or nothing was pushed. *)
let start_flush st n =
  let node = st.ns.(n) in
  match node.prod with
  | Some p when p.fl_acks = 0 && p.unflushed <> 0 ->
      let targets = bits_list p.unflushed in
      let st =
        with_node st n (fun node ->
            {
              node with
              prod = Some { p with unflushed = 0; fl_acks = List.length targets };
            })
      in
      post st (List.map (fun c -> { src = n; dst = c; seq = 0; msg = MFlush }) targets)
  | _ -> st

let line_value node =
  match node.cache with
  | CE v | CS v -> v
  | CI -> ( match node.rac with Some v -> v | None -> -1)

let downgrade_push params st n ~exclude =
  let node = st.ns.(n) in
  match node.prod with
  | Some ({ pst = PEx; _ } as p) ->
      let v = line_value node in
      let pushed =
        if params.enable_updates then
          List.filter (fun c -> c <> n && Some c <> exclude) (bits_list p.upds)
        else []
      in
      let new_sharers =
        if params.bug = Some Updates_without_resharing then p.psharers
        else List.fold_left add_bit p.psharers pushed
      in
      let st =
        with_node st n (fun node ->
            {
              node with
              cache = (match node.cache with CE v -> CS v | other -> other);
              rac = Some v;
              prod =
                Some
                  {
                    p with
                    pst = PSh;
                    psharers = new_sharers;
                    unflushed = List.fold_left add_bit p.unflushed pushed;
                  };
            })
      in
      post st (List.map (fun c -> { src = n; dst = c; seq = 0; msg = MUpdate v }) pushed)
  | _ -> st

let undelegate st n ~pending =
  let node = st.ns.(n) in
  match node.prod with
  | Some p ->
      let v = line_value node in
      let st =
        with_node st n (fun node ->
            {
              node with
              cache = (match node.cache with CE v -> CS v | other -> other);
              (* refresh the (stale during P_excl) RAC backing copy *)
              rac = (match node.rac with Some _ -> Some v | None -> None);
              prod = None;
            })
      in
      let node' = st.ns.(n) in
      let self_copy = node'.cache <> CI || node'.rac <> None in
      let sharers = if self_copy then add_bit p.psharers n else rem_bit p.psharers n in
      post st [ { src = n; dst = home; seq = 0; msg = MUndele (sharers, Some v, pending) } ]
  | None -> st

let try_complete_store st n =
  match st.ns.(n).pend with
  | Some { pkind = PW; have_data = true; acks; deferred; _ } when acks <= 0 ->
      let st = commit_store st n in
      let st =
        List.fold_left
          (fun st (is_transfer, requester, tid) ->
            if is_transfer then transfer_now st n requester tid
            else intervention_now st n requester tid)
          st (List.rev deferred)
      in
      (* a recall received mid-transaction triggers undelegation once the
         update flush completes *)
      (match st.ns.(n).prod with
      | Some ({ recalled = true; _ } as p) ->
          if fence_needed p then start_flush st n else undelegate st n ~pending:None
      | _ -> st)
  | _ -> st

(* ------------------------------------------------------------------ *)
(* Home-side message handling                                          *)
(* ------------------------------------------------------------------ *)

(* Returns the possible next states for delivering [msg] from [s] at the
   home (several when the home may nondeterministically delegate); [] if
   delivery is currently blocked. *)
let home_handle params st ~s msg =
  let reply m = [ { src = home; dst = s; seq = 0; msg = m } ] in
  match (msg, st.dir) with
  | (MGetS tid | MGetX tid), dir -> (
      let kind : Types.op_kind = match msg with MGetS _ -> Load | _ -> Store in
      match Directory_rules.request kind dir ~owner:(st.own = s) with
      | Nack reason -> [ post st (reply (MNack (reason, tid))) ]
      | Grant_shared ->
          let st = { st with dir = Shared_s; shr = add_bit st.shr s } in
          [ post st (reply (MDataS (st.mem, tid))) ]
      | Grant_exclusive ->
          [ post { st with dir = Excl; own = s; shr = 0 } (reply (MDataE (st.mem, 0, tid))) ]
      | Invalidate_sharers ->
          let others = bits_list (rem_bit st.shr s) in
          let invals requester =
            List.map
              (fun n -> { src = home; dst = n; seq = 0; msg = MInval requester })
              others
          in
          let grant =
            post
              { st with dir = Excl; own = s; shr = 0 }
              (reply (MDataE (st.mem, List.length others, tid)) @ invals s)
          in
          let delegations =
            if params.enable_delegation then begin
              let sharers = rem_bit st.shr s in
              let base = { st with dir = Dele; own = s; shr = 0 } in
              if params.bug = Some Skip_invals_on_delegate then
                [ post base (reply (MDelegate (sharers, st.mem, 0, tid))) ]
              else
                [
                  post base
                    (reply (MDelegate (sharers, st.mem, List.length others, tid)) @ invals s);
                ]
            end
            else []
          in
          grant :: delegations
      | (Intervene | Transfer | Recall) as answer ->
          let dir : Directory.dstate =
            match kind with Load -> Busy_shared | Store -> Busy_excl
          in
          let msg =
            match answer with
            | Intervene -> MIntv (s, tid)
            | Transfer -> MTransfer (s, tid)
            | _ -> MRecall
          in
          [
            post
              { st with dir; req = s; req_tid = tid }
              [ { src = home; dst = st.own; seq = 0; msg } ];
          ]
      | Forward ->
          [
            post st
              [
                { src = home; dst = st.own; seq = 0; msg = MFwdS (s, tid) };
                { src = home; dst = s; seq = 0; msg = MNewHome st.own };
              ];
          ])
  | MWb v, Excl when st.own = s ->
      [ post { st with mem = v; dir = Unowned; own = -1 } (reply MWbAck) ]
  | MWb v, Busy_shared when st.own = s ->
      [
        post
          { st with mem = v; dir = Shared_s; shr = bit st.req; own = -1 }
          (reply MWbAck
          @ [ { src = home; dst = st.req; seq = 0; msg = MDataS (v, st.req_tid) } ]);
      ]
  | MWb v, Busy_excl when st.own = s ->
      (* grant the waiting writer by re-running its request *)
      [
        post
          { st with mem = v; dir = Unowned; own = -1 }
          (reply MWbAck
          @ [ { src = st.req; dst = home; seq = 0; msg = MGetX st.req_tid } ]);
      ]
  | MWb v, Busy_excl when st.req = s ->
      (* the new owner wrote back before its Transfer_ack reached us: the
         ownership transfer evidently completed, so the transaction ends
         here (the late Transfer_ack is dropped) *)
      [ post { st with mem = v; dir = Unowned; own = -1 } (reply MWbAck) ]
  | MWb _, _ -> [ post st (reply MWbAck) ] (* stale, but always acknowledged *)
  | MSwb (v, new_sharer), Busy_shared when st.own = s ->
      [ { st with mem = v; dir = Shared_s; shr = add_bit (bit s) new_sharer; own = -1 } ]
  | MSwb _, _ -> [ st ]
  | MTack new_owner, Busy_excl when st.own = s -> [ { st with dir = Excl; own = new_owner } ]
  | MTack _, _ -> [ st ]
  | MUndele (sharers, value, pending), (Dele | Busy_excl) when st.own = s ->
      let st = match value with Some v -> { st with mem = v } | None -> st in
      let stored = if st.dir = Busy_excl then Some (st.req, st.req_tid) else None in
      let st =
        if sharers = 0 then { st with dir = Unowned; own = -1; shr = 0 }
        else { st with dir = Shared_s; own = -1; shr = sharers }
      in
      let requeue (requester, tid) =
        { src = requester; dst = home; seq = 0; msg = MGetX tid }
      in
      let packets =
        (match pending with Some r -> [ requeue r ] | None -> [])
        @ (match stored with Some r -> [ requeue r ] | None -> [])
      in
      [ post st packets ]
  | MUndele _, _ -> [ st ]
  | ( ( MFwdS _ | MInval _ | MIntv _ | MTransfer _ | MDataS _ | MDataE _ | MAck | MNack _
      | MDelegate _ | MNewHome _ | MRecall | MUpdate _ | MFlush | MFlushAck | MWbAck ),
      _ ) ->
      assert false (* routed to the cache side *)

(* ------------------------------------------------------------------ *)
(* Cache/producer-side message handling                                *)
(* ------------------------------------------------------------------ *)

let serve_read params st n ~requester ~tid =
  let node = st.ns.(n) in
  match node.prod with
  | None ->
      [ post st [ { src = n; dst = requester; seq = 0; msg = MNack (Not_home, tid) } ] ]
  | Some { pst = PB; _ } ->
      [ post st [ { src = n; dst = requester; seq = 0; msg = MNack (Busy, tid) } ] ]
  | Some ({ pst = PEx; _ } as _p) ->
      let st = downgrade_push params st n ~exclude:(Some requester) in
      let node = st.ns.(n) in
      let p = Option.get node.prod in
      let st =
        with_node st n (fun node ->
            { node with prod = Some { p with psharers = add_bit p.psharers requester } })
      in
      let v = match node.rac with Some v -> v | None -> line_value node in
      [ post st [ { src = n; dst = requester; seq = 0; msg = MDataS (v, tid) } ] ]
  | Some ({ pst = PSh; _ } as p) -> (
      match node.rac with
      | Some v ->
          let st =
            with_node st n (fun node ->
                { node with prod = Some { p with psharers = add_bit p.psharers requester } })
          in
          [ post st [ { src = n; dst = requester; seq = 0; msg = MDataS (v, tid) } ] ]
      | None ->
          [ post st [ { src = n; dst = requester; seq = 0; msg = MNack (Not_home, tid) } ] ])

let resend_request st n =
  let node = st.ns.(n) in
  match node.pend with
  | None -> st
  | Some p ->
      let target = match node.hint with Some h -> h | None -> home in
      let msg = match p.pkind with PL -> MGetS p.tid | PW -> MGetX p.tid in
      let st =
        with_node st n (fun node -> { node with pend = Some { p with target } })
      in
      post st [ { src = n; dst = target; seq = 0; msg } ]

let cache_handle params st ~src n msg =
  let node = st.ns.(n) in
  match msg with
  | MInval requester ->
      let st =
        with_node st n (fun node ->
            {
              node with
              cache = CI;
              rac = None;
              pend =
                (match node.pend with
                | Some ({ pkind = PL; _ } as p) when params.bug <> Some No_poison_on_inval ->
                    Some { p with poisoned = true }
                | other -> other);
            })
      in
      [ post st [ { src = n; dst = requester; seq = 0; msg = MAck } ] ]
  | MIntv (requester, tid) -> (
      (* an upgrade in flight means the intervention targets the exclusive
         copy we are about to gain: stash it until the store commits.  An
         intervention arriving while our writeback is outstanding belongs
         to the epoch that writeback ends: drop it (the home resolves the
         race when the writeback lands). *)
      match (node.cache, node.pend) with
      | _, _ when node.wbp -> [ st ]
      | (CS _ | CI), Some ({ pkind = PW; _ } as p) ->
          [
            with_node st n (fun node ->
                {
                  node with
                  pend = Some { p with deferred = (false, requester, tid) :: p.deferred };
                });
          ]
      | (CE _ | CS _), _ -> [ intervention_now st n requester tid ]
      | CI, _ -> [ st ] (* writeback race; the home resolves it *))
  | MTransfer (requester, tid) -> (
      match (node.cache, node.pend) with
      | _, _ when node.wbp -> [ st ]
      | (CS _ | CI), Some ({ pkind = PW; _ } as p) ->
          [
            with_node st n (fun node ->
                {
                  node with
                  pend = Some { p with deferred = (true, requester, tid) :: p.deferred };
                });
          ]
      | (CE _ | CS _), _ -> [ transfer_now st n requester tid ]
      | CI, _ -> [ st ])
  | MDataS (v, tid) -> (
      match node.pend with
      | Some { pkind = PL; poisoned; tid = pt; _ } when pt = tid ->
          [ commit_read st n v ~cache_fill:(not poisoned) ]
      | _ -> [ st ] (* stale reply: drop *))
  | MDataE (_v, acks, tid) -> (
      match node.pend with
      | Some ({ pkind = PW; tid = pt; _ } as p) when pt = tid ->
          let st =
            with_node st n (fun node ->
                { node with pend = Some { p with have_data = true; acks = p.acks + acks } })
          in
          [ try_complete_store st n ]
      | _ -> [ st ])
  | MAck -> (
      match node.pend with
      | Some ({ pkind = PW; _ } as p) ->
          let st = with_node st n (fun node -> { node with pend = Some { p with acks = p.acks - 1 } }) in
          [ try_complete_store st n ]
      | _ -> [ st ])
  | MNack (reason, tid) -> (
      match node.pend with
      | Some p when p.tid = tid ->
          let st =
            if reason = Not_home then with_node st n (fun node -> { node with hint = None })
            else st
          in
          [ resend_request st n ]
      | _ -> [ st ] (* stale NACK: drop *))
  | MNewHome h ->
      [ (if h = n then st else with_node st n (fun node -> { node with hint = Some h })) ]
  | MUpdate v -> (
      match node.pend with
      | Some { pkind = PL; _ } ->
          (* update-as-reply (§2.4.3); the superseded data reply is
             dropped by its stale transaction id *)
          [ commit_read st n v ~cache_fill:true ]
      | _ -> [ with_node st n (fun node -> { node with rac = Some v }) ])
  | MFlush -> [ post st [ { src = n; dst = src; seq = 0; msg = MFlushAck } ] ]
  | MFlushAck -> (
      match node.prod with
      | Some ({ fl_acks; _ } as p) when fl_acks > 0 ->
          let p = { p with fl_acks = fl_acks - 1 } in
          let st = with_node st n (fun node -> { node with prod = Some p }) in
          if p.fl_acks = 0 && p.pst <> PB && p.recalled then
            if p.unflushed <> 0 then [ start_flush st n ]
            else [ undelegate st n ~pending:None ]
          else [ st ]
      | _ -> [ st ])
  | MDelegate (sharers, v, acks, tid) -> (
      match node.pend with
      | Some ({ pkind = PW; tid = pt; _ } as p) when pt = tid ->
          let st =
            with_node st n (fun node ->
                {
                  node with
                  rac = Some v;
                  prod = Some { pst = PB; psharers = bit n; upds = sharers; recalled = false; unflushed = 0; fl_acks = 0 };
                  pend = Some { p with have_data = true; acks = p.acks + acks };
                })
          in
          [ try_complete_store st n ]
      | _ ->
          (* defensive: return the delegation *)
          [ post st [ { src = n; dst = home; seq = 0; msg = MUndele (sharers, Some v, None) } ] ])
  | MFwdS (requester, tid) -> serve_read params st n ~requester ~tid
  | MGetS tid -> serve_read params st n ~requester:src ~tid
  | MGetX tid -> (
      match node.prod with
      | None ->
          [ post st [ { src = n; dst = src; seq = 0; msg = MNack (Not_home, tid) } ] ]
      | Some p ->
          if p.pst = PB || fence_needed p then
            [ post st [ { src = n; dst = src; seq = 0; msg = MNack (Busy, tid) } ] ]
          else [ undelegate st n ~pending:(Some (src, tid)) ])
  | MRecall -> (
      match node.prod with
      | None -> [ st ]
      | Some p ->
          if p.pst = PB || fence_needed p then
            (* remember the recall; undelegate when the local store commits
               and the update flush completes *)
            [
              (let st =
                 with_node st n (fun node ->
                     { node with prod = Some { p with recalled = true } })
               in
               if p.pst = PB then st else start_flush st n);
            ]
          else [ undelegate st n ~pending:None ])
  | MWbAck -> [ with_node st n (fun node -> { node with wbp = false }) ]
  | MWb _ | MSwb _ | MTack _ | MUndele _ -> assert false (* home side *)

(* ------------------------------------------------------------------ *)
(* Transition labels                                                   *)
(* ------------------------------------------------------------------ *)

(* Labels are only read when a counterexample is printed, yet every
   transition carries one, so they are built once per model and shared:
   successor lists point into these tables. *)

type node_labels = {
  load_hit : string;
  load_rac : string;
  load_miss : string;
  store_hit : string;
  store_upgrade : string;
  store_regain : string;
  store_miss : string;
  downgrade : string;
  evict_excl_delegated : string;
  evict_excl : string;
  evict_shared : string;
  undelegate : string;
  drop_hint : string;
}

type labels = {
  node : node_labels array;
  stride : int;
  deliver : string array;  (* ((src * stride) + dst) * classes + class *)
}

let msg_class_names =
  [| "gets"; "getx"; "fwds"; "inval"; "intv"; "transfer"; "datas"; "datae"; "ack"; "swb";
     "tack"; "nack"; "delegate"; "newhome"; "recall"; "undele"; "update"; "updack"; "wb";
     "wback" |]

(* index into [msg_class_names]; flush and flush-ack share a label *)
let msg_class = function
  | MGetS _ -> 0
  | MGetX _ -> 1
  | MFwdS _ -> 2
  | MInval _ -> 3
  | MIntv _ -> 4
  | MTransfer _ -> 5
  | MDataS _ -> 6
  | MDataE _ -> 7
  | MAck -> 8
  | MSwb _ -> 9
  | MTack _ -> 10
  | MNack _ -> 11
  | MDelegate _ -> 12
  | MNewHome _ -> 13
  | MRecall -> 14
  | MUndele _ -> 15
  | MUpdate _ -> 16
  | MFlush | MFlushAck -> 17
  | MWb _ -> 18
  | MWbAck -> 19

let build_labels ~nodes ~prefix =
  let node_labels n =
    let l kind = prefix ^ "n" ^ string_of_int n ^ ":" ^ kind in
    {
      load_hit = l "issue-load-hit";
      load_rac = l "issue-load-rac";
      load_miss = l "issue-load-miss";
      store_hit = l "issue-store-hit";
      store_upgrade = l "issue-store-upgrade";
      store_regain = l "issue-store-regain";
      store_miss = l "issue-store-miss";
      downgrade = l "downgrade";
      evict_excl_delegated = l "evict-excl-delegated";
      evict_excl = l "evict-excl";
      evict_shared = l "evict-shared";
      undelegate = l "undelegate";
      drop_hint = l "drop-hint";
    }
  in
  let classes = Array.length msg_class_names in
  {
    node = Array.init nodes node_labels;
    stride = nodes;
    deliver =
      Array.init (nodes * nodes * classes) (fun i ->
          let pair = i / classes in
          prefix ^ "deliver[" ^ string_of_int (pair / nodes) ^ "->"
          ^ string_of_int (pair mod nodes)
          ^ "]:" ^ msg_class_names.(i mod classes));
  }

let deliver_label labels packet =
  labels.deliver.((((packet.src * labels.stride) + packet.dst) * Array.length msg_class_names)
                  + msg_class packet.msg)

(* Unprefixed labels for the single-line [Step] driver, built once for
   every size the differential oracle steers (up to 8 nodes); larger
   models get a table per call. *)
let plain_labels = build_labels ~nodes:8 ~prefix:""

let step_labels params =
  if params.nodes <= plain_labels.stride then plain_labels
  else build_labels ~nodes:params.nodes ~prefix:""

(* ------------------------------------------------------------------ *)
(* Transition enumeration                                              *)
(* ------------------------------------------------------------------ *)

let issue_transitions labels params ~line st n =
  let node = st.ns.(n) in
  let may_load, may_store =
    match params.workload with
    | Symmetric -> (true, true)
    | Producer_consumer ->
        let p = producer_of_line params line in
        (n <> p, n = p)
  in
  if node.pend <> None || node.done_ >= params.max_ops_per_node then []
  else begin
    let names = labels.node.(n) in
    let load =
      match node.cache with
      | CS v | CE v -> (names.load_hit, commit_read st n v ~cache_fill:true)
      | CI -> (
          match node.rac with
          | Some v -> (names.load_rac, commit_read st n v ~cache_fill:true)
          | None ->
              let st =
                with_node st n (fun node ->
                    {
                      node with
                      pend = Some { pkind = PL; have_data = false; acks = 0; poisoned = false; target = -1; tid = 2 * node.done_; deferred = [] };
                    })
              in
              (names.load_miss, resend_request st n))
    in
    let store =
      match (node.cache, node.prod) with
      | CE _, _ -> (names.store_hit, commit_store st n)
      | _, Some ({ pst = PSh; _ } as p) ->
          (* delegated local upgrade: invalidate consumers directly *)
          let others = bits_list (rem_bit p.psharers n) in
          let st =
            with_node st n (fun node ->
                {
                  node with
                  prod = Some { pst = PB; upds = rem_bit p.psharers n; psharers = bit n; recalled = p.recalled; unflushed = p.unflushed; fl_acks = p.fl_acks };
                  pend =
                    Some
                      {
                        pkind = PW;
                        have_data = true;
                        acks = List.length others;
                        poisoned = false;
                        target = n;
                        tid = (2 * node.done_) + 1;
                        deferred = [];
                      };
                })
          in
          let st =
            post st (List.map (fun c -> { src = n; dst = c; seq = 0; msg = MInval n }) others)
          in
          (names.store_upgrade, try_complete_store st n)
      | CI, Some { pst = PEx; _ } ->
          (* exclusivity held, line evicted to the pinned RAC entry *)
          (names.store_regain, commit_store st n)
      | (CI | CS _), _ ->
          let st =
            with_node st n (fun node ->
                {
                  node with
                  pend = Some { pkind = PW; have_data = false; acks = 0; poisoned = false; target = -1; tid = (2 * node.done_) + 1; deferred = [] };
                })
          in
          (names.store_miss, resend_request st n)
    in
    (if may_load then [ load ] else []) @ (if may_store then [ store ] else [])
  end

let spontaneous_transitions labels params st n =
  let node = st.ns.(n) in
  let names = labels.node.(n) in
  let transitions = ref [] in
  let add label st' = transitions := (label, st') :: !transitions in
  (* delayed intervention fires *)
  (match node.prod with
  | Some { pst = PEx; _ } -> add names.downgrade (downgrade_push params st n ~exclude:None)
  | _ -> ());
  (* cache eviction *)
  (match (node.cache, node.prod) with
  | CE v, Some _ ->
      add names.evict_excl_delegated
        (with_node st n (fun node -> { node with cache = CI; rac = Some v }))
  | CE v, None ->
      add names.evict_excl
        (post
           (with_node st n (fun node -> { node with cache = CI; wbp = true }))
           [ { src = n; dst = home; seq = 0; msg = MWb v } ])
  | CS v, _ ->
      let st' =
        with_node st n (fun node ->
            { node with cache = CI; rac = (if n = home then node.rac else Some v) })
      in
      add names.evict_shared st'
  | CI, _ -> ());
  (* capacity undelegation *)
  (match node.prod with
  | Some ({ pst = PEx | PSh; _ } as p) when not (fence_needed p) ->
      add names.undelegate (undelegate st n ~pending:None)
  | _ -> ());
  (* consumer-table hint eviction *)
  (match node.hint with
  | Some _ -> add names.drop_hint (with_node st n (fun node -> { node with hint = None }))
  | None -> ());
  !transitions

let rec head_of_line packet = function
  | [] -> true
  | q :: rest ->
      (not (q.src = packet.src && q.dst = packet.dst && q.seq < packet.seq))
      && head_of_line packet rest

let deliver_transitions labels params st =
  List.concat_map
    (fun packet ->
      if not (head_of_line packet st.net) then []
      else
      let st' = remove_packet st packet in
      let results =
        match packet.msg with
        | (MGetS _ | MGetX _) when packet.dst = home ->
            home_handle params st' ~s:packet.src packet.msg
        | MWb _ | MSwb _ | MTack _ | MUndele _ ->
            home_handle params st' ~s:packet.src packet.msg
        | _ -> cache_handle params st' ~src:packet.src packet.dst packet.msg
      in
      let label = deliver_label labels packet in
      List.mapi
        (fun i result -> ((if i = 0 then label else label ^ "#" ^ string_of_int i), result))
        results)
    st.net

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let in_flight st predicate = List.exists predicate st.net

let exclusive_holders st =
  let holders = ref [] in
  Array.iteri
    (fun n node -> match node.cache with CE _ -> holders := n :: !holders | _ -> ())
    st.ns;
  !holders

let value_coherent st = st.error = None

let single_writer st =
  match exclusive_holders st with
  | [] -> true
  | [ n ] ->
      (match st.dir with
      | (Excl | Dele | Busy_shared | Busy_excl) when st.own = n -> true
      | _ -> in_flight st (fun p -> p.msg = MTack n))
  | _ :: _ :: _ -> false

let directory_consistent st =
  let covered n =
    let escape =
      in_flight st (fun p ->
          (p.dst = n && (match p.msg with MInval _ | MUpdate _ -> true | _ -> false))
          (* a winding-down delegation carries its sharing vector in the
             in-flight Undelegate message *)
          || (match p.msg with MUndele (sharers, _, _) -> mem_bit sharers n | _ -> false))
    in
    let producer_covers owner =
      owner >= 0
      &&
      match st.ns.(owner).prod with
      | Some p -> mem_bit p.psharers n
      | None -> false
    in
    escape
    ||
    match st.dir with
    | Unowned -> false
    | Shared_s -> mem_bit st.shr n
    | Excl | Busy_shared | Busy_excl -> n = st.own || n = st.req || producer_covers st.own
    | Dele -> (
        n = st.own
        ||
        match st.ns.(st.own).prod with
        | Some p -> mem_bit p.psharers n
        | None ->
            (* delegation handshake in flight: the Delegate message still
               holds the vector *)
            in_flight st (fun p ->
                match p.msg with
                | MDelegate (sharers, _, _, _) -> p.dst = st.own && mem_bit sharers n
                | _ -> false))
  in
  Array.for_all Fun.id
    (Array.mapi
       (fun n node ->
         let has_copy = node.cache <> CI || node.rac <> None in
         (not has_copy) || covered n)
       st.ns)

let delegation_consistent st =
  let dir_side =
    st.dir <> Dele
    || st.ns.(st.own).prod <> None
    || in_flight st (fun p ->
           match p.msg with
           | MDelegate _ -> p.dst = st.own
           | MUndele _ -> p.src = st.own
           | _ -> false)
  in
  let node_side =
    Array.for_all Fun.id
      (Array.mapi
         (fun n node ->
           node.prod = None || ((st.dir = Dele || st.dir = Busy_excl) && st.own = n))
         st.ns)
  in
  dir_side && node_side

(* ------------------------------------------------------------------ *)
(* Model assembly                                                      *)
(* ------------------------------------------------------------------ *)

let initial_state params =
  norm
    {
      ns =
        Array.init params.nodes (fun _ ->
            {
              cache = CI;
              rac = None;
              prod = None;
              pend = None;
              hint = None;
              done_ = 0;
              last_seen = 0;
              wbp = false;
            });
      dir = Unowned;
      shr = 0;
      own = -1;
      req = -1;
      req_tid = 0;
      mem = 0;
      net = [];
      nextv = 0;
      error = None;
    }

(* a successor that overfills some channel is not taken; the message it
   would react to stays in the network for later *)
let channels_ok params st =
  let rec on_channel src dst count = function
    | [] -> count
    | p :: rest -> on_channel src dst (if p.src = src && p.dst = dst then count + 1 else count) rest
  in
  List.for_all
    (fun p -> on_channel p.src p.dst 0 st.net <= params.channel_capacity)
    st.net

let all_successors ?(line = 0) labels params st =
  (* generation order: issues, spontaneous moves, deliveries *)
  let keep acc (label, st') = if channels_ok params st' then (label, norm st') :: acc else acc in
  let acc = ref [] in
  for n = 0 to params.nodes - 1 do
    acc := List.fold_left keep !acc (issue_transitions labels params ~line st n)
  done;
  for n = 0 to params.nodes - 1 do
    acc := List.fold_left keep !acc (spontaneous_transitions labels params st n)
  done;
  List.rev (List.fold_left keep !acc (deliver_transitions labels params st))

let invariants_list =
  [
    ("value coherence", value_coherent);
    ("single writer exists", single_writer);
    ("consistency within the directory", directory_consistent);
    ("delegation consistency", delegation_consistent);
  ]

let dir_name : Directory.dstate -> string = function
  | Unowned -> "U"
  | Shared_s -> "S"
  | Excl -> "E"
  | Busy_shared -> "Bs"
  | Busy_excl -> "Be"
  | Dele -> "D"

let pp_state ppf st =
  let cache_str node =
    match node.cache with
    | CI -> "I"
    | CS v -> Printf.sprintf "S%d" v
    | CE v -> Printf.sprintf "E%d" v
  in
  Format.fprintf ppf "@[<v>dir=%s own=%d req=%d shr=%x mem=%d nextv=%d@,"
    (dir_name st.dir) st.own st.req st.shr st.mem st.nextv;
  Array.iteri
    (fun n node ->
      Format.fprintf ppf "n%d: cache=%s rac=%s prod=%s pend=%s done=%d seen=%d@," n
        (cache_str node)
        (match node.rac with Some v -> string_of_int v | None -> "-")
        (match node.prod with
        | Some { pst = PB; _ } -> "B"
        | Some { pst = PEx; _ } -> "E"
        | Some { pst = PSh; _ } -> "S"
        | None -> "-")
        (match node.pend with
        | Some { pkind = PL; _ } -> "L"
        | Some { pkind = PW; _ } -> "W"
        | None -> "-")
        node.done_ node.last_seen)
    st.ns;
  Format.fprintf ppf "net: %d msgs@]" (List.length st.net)

(* ------------------------------------------------------------------ *)
(* Fast structural encoding                                             *)
(* ------------------------------------------------------------------ *)

(* The seed encoded states with [Marshal], which dominated exploration
   time once symmetry reduction multiplied encodes by (n-1)!.  This hand
   encoder writes one byte per small field.  Every integer in a reachable
   state is tiny (masks < 2^nodes, versions and tids bounded by the op
   budget, ack counts by in-flight messages), so a single byte biased by
   64 covers the range; the encoding of each list is length-prefixed,
   making the whole encoding self-delimiting and the concatenation of
   several line encodings injective.

   Canonicalization encodes one state under every node permutation.  The
   encoder writes the permuted image in place — each id and mask is
   renamed as it is written, nodes are visited through the inverse
   permutation — instead of building the renamed state and normalizing
   it again.  Renaming a normalized state keeps every channel's sequence
   numbers, so only the packet order changes: packets are emitted in
   (renamed src, renamed dst, seq) order.  The identity permutation
   writes the state as it is.  [rename_state] stays as the reference
   the symmetry properties check this encoder against ([Sym]). *)

type writer = { mutable bytes : Bytes.t; mutable len : int }

let writer () = { bytes = Bytes.create 256; len = 0 }

let grow w extra =
  let bytes = Bytes.create (max (2 * Bytes.length w.bytes) (w.len + extra)) in
  Bytes.blit w.bytes 0 bytes 0 w.len;
  w.bytes <- bytes

let byte w n =
  if w.len = Bytes.length w.bytes then grow w 1;
  Bytes.unsafe_set w.bytes w.len (Char.unsafe_chr ((n + 64) land 0xff));
  w.len <- w.len + 1

let blit w src off len =
  if w.len + len > Bytes.length w.bytes then grow w len;
  Bytes.blit src off w.bytes w.len len;
  w.len <- w.len + len

(* lexicographic, unsigned — the order of [String.compare] *)
let rec compare_bytes a aoff alen b boff blen i =
  if i = alen || i = blen then Int.compare alen blen
  else
    let c = Char.compare (Bytes.unsafe_get a (aoff + i)) (Bytes.unsafe_get b (boff + i)) in
    if c <> 0 then c else compare_bytes a aoff alen b boff blen (i + 1)

type perm = { fwd : int array; inv : int array; identity : bool }

let perm_of fwd =
  let inv = Array.make (Array.length fwd) 0 in
  Array.iteri (fun i j -> inv.(j) <- i) fwd;
  { fwd; inv; identity = Array.for_all Fun.id (Array.mapi ( = ) fwd) }

let rn p n = if n < 0 || p.identity then n else p.fwd.(n)

let rmask p mask = if p.identity then mask else rename_mask p.fwd mask

let enc_bool w x = byte w (if x then 1 else 0)

let enc_opt_int w = function
  | None -> byte w 0
  | Some x ->
      byte w 1;
      byte w x

let enc_cache w = function
  | CI -> byte w 0
  | CS v ->
      byte w 1;
      byte w v
  | CE v ->
      byte w 2;
      byte w v

let enc_prod w p prod =
  byte w (match prod.pst with PB -> 0 | PEx -> 1 | PSh -> 2);
  byte w (rmask p prod.psharers);
  byte w (rmask p prod.upds);
  enc_bool w prod.recalled;
  byte w (rmask p prod.unflushed);
  byte w prod.fl_acks

let rec enc_deferred w p = function
  | [] -> ()
  | (t, r, tid) :: rest ->
      enc_bool w t;
      byte w (rn p r);
      byte w tid;
      enc_deferred w p rest

let enc_pend w p pend =
  byte w (match pend.pkind with PL -> 0 | PW -> 1);
  enc_bool w pend.have_data;
  byte w pend.acks;
  enc_bool w pend.poisoned;
  byte w (rn p pend.target);
  byte w pend.tid;
  byte w (List.length pend.deferred);
  enc_deferred w p pend.deferred

let enc_msg w p = function
  | MGetS tid ->
      byte w 0;
      byte w tid
  | MGetX tid ->
      byte w 1;
      byte w tid
  | MFwdS (r, tid) ->
      byte w 2;
      byte w (rn p r);
      byte w tid
  | MInval r ->
      byte w 3;
      byte w (rn p r)
  | MIntv (r, tid) ->
      byte w 4;
      byte w (rn p r);
      byte w tid
  | MTransfer (r, tid) ->
      byte w 5;
      byte w (rn p r);
      byte w tid
  | MDataS (v, tid) ->
      byte w 6;
      byte w v;
      byte w tid
  | MDataE (v, a, tid) ->
      byte w 7;
      byte w v;
      byte w a;
      byte w tid
  | MAck -> byte w 8
  | MSwb (v, ns) ->
      byte w 9;
      byte w v;
      byte w (rn p ns)
  | MTack o ->
      byte w 10;
      byte w (rn p o)
  | MNack (r, tid) ->
      byte w 11;
      byte w (match r with Busy -> 0 | Not_home -> 1 | Pending -> 2);
      byte w tid
  | MDelegate (sharers, v, a, tid) ->
      byte w 12;
      byte w (rmask p sharers);
      byte w v;
      byte w a;
      byte w tid
  | MNewHome h ->
      byte w 13;
      byte w (rn p h)
  | MRecall -> byte w 14
  | MUndele (sharers, v, pending) -> (
      byte w 15;
      byte w (rmask p sharers);
      enc_opt_int w v;
      match pending with
      | None -> byte w 0
      | Some (r, tid) ->
          byte w 1;
          byte w (rn p r);
          byte w tid)
  | MUpdate v ->
      byte w 16;
      byte w v
  | MFlush -> byte w 17
  | MFlushAck -> byte w 18
  | MWb v ->
      byte w 19;
      byte w v
  | MWbAck -> byte w 20

let enc_packet w p pk =
  byte w (rn p pk.src);
  byte w (rn p pk.dst);
  byte w pk.seq;
  enc_msg w p pk.msg

(* a packet's position in the renamed state's normalized net *)
let packet_key p pk = (((rn p pk.src lsl 4) lor rn p pk.dst) lsl 16) lor pk.seq

let rec min_key_above p last best = function
  | [] -> best
  | pk :: rest ->
      let k = packet_key p pk in
      min_key_above p last (if k > last && k < best then k else best) rest

let rec enc_keyed w p k = function
  | [] -> ()
  | pk :: rest -> if packet_key p pk = k then enc_packet w p pk else enc_keyed w p k rest

let rec enc_in_order w p = function
  | [] -> ()
  | pk :: rest ->
      enc_packet w p pk;
      enc_in_order w p rest

(* Appends the encoding of [st] renamed by [p]; [st] must be normalized
   ([norm]).  The bytes are those the identity permutation writes for
   [norm (rename_state p.fwd st)]. *)
let enc_line w p st =
  for j = 0 to Array.length st.ns - 1 do
    let n = st.ns.(if p.identity then j else p.inv.(j)) in
    enc_cache w n.cache;
    enc_opt_int w n.rac;
    (match n.prod with
    | None -> byte w 0
    | Some prod ->
        byte w 1;
        enc_prod w p prod);
    (match n.pend with
    | None -> byte w 0
    | Some pend ->
        byte w 1;
        enc_pend w p pend);
    (match n.hint with
    | None -> byte w 0
    | Some h ->
        byte w 1;
        byte w (rn p h));
    byte w n.done_;
    byte w n.last_seen;
    enc_bool w n.wbp
  done;
  byte w (match st.dir with Unowned -> 0 | Shared_s -> 1 | Excl -> 2 | Busy_shared -> 3 | Busy_excl -> 4 | Dele -> 5);
  byte w (rmask p st.shr);
  byte w (rn p st.own);
  byte w (rn p st.req);
  byte w st.req_tid;
  byte w st.mem;
  byte w st.nextv;
  let count = List.length st.net in
  byte w count;
  (if p.identity then enc_in_order w p st.net
   else
     let last = ref (-1) in
     for _ = 1 to count do
       let k = min_key_above p !last max_int st.net in
       enc_keyed w p k st.net;
       last := k
     done);
  match st.error with
  | None -> byte w 0
  | Some e ->
      byte w 1;
      byte w (String.length e);
      blit w (Bytes.unsafe_of_string e) 0 (String.length e)

(* ------------------------------------------------------------------ *)
(* Multi-line composition                                               *)
(* ------------------------------------------------------------------ *)

(* [lines] independent single-line protocol instances over the same node
   set.  Because the instances share nothing, (a) every transition
   belongs to exactly one line, so per-line transition groups are
   independence classes for partial-order reduction, and (b) the
   symmetry group grows: a global node permutation (applied to every
   line at once) composed with any permutation of the lines maps
   reachable states to reachable states and preserves all invariants. *)

type mstate = { ls : state array }

let initial_mstate params = { ls = Array.init params.lines (fun _ -> initial_state params) }

let line_label params l label =
  if params.lines > 1 then Printf.sprintf "L%d:%s" l label else label

(* one label table per line, prefixed ["L<l>:"] when [lines > 1] *)
let line_labels params =
  Array.init params.lines (fun l ->
      build_labels ~nodes:params.nodes ~prefix:(line_label params l ""))

let line_successors labels params mst l =
  List.map
    (fun (label, st') ->
      let ls = Array.copy mst.ls in
      ls.(l) <- st';
      (label, { ls }))
    (all_successors ~line:l labels.(l) params mst.ls.(l))

let mstate_successors labels params mst =
  List.concat (List.init (Array.length mst.ls) (line_successors labels params mst))

(* Transition groups for POR, in fixed line order.  The checker expands
   the first group offering an unexplored successor; the soundness
   argument (DESIGN.md, "Verification") depends on this order being a
   fixed function of the line index, not of the state. *)
let mstate_groups labels params mst =
  List.init (Array.length mst.ls) (line_successors labels params mst)

let mstate_invariants params =
  List.concat
    (List.init params.lines (fun l ->
         List.map
           (fun (name, pred) ->
             (line_label params l name, fun mst -> pred mst.ls.(l)))
           invariants_list))

let line_quiescent params st =
  st.net = []
  && Array.for_all
       (fun node -> node.pend = None && node.done_ >= params.max_ops_per_node)
       st.ns

let mstate_quiescent params mst = Array.for_all (line_quiescent params) mst.ls

let pp_mstate ppf mst =
  if Array.length mst.ls = 1 then pp_state ppf mst.ls.(0)
  else begin
    Format.fprintf ppf "@[<v>";
    Array.iteri (fun l st -> Format.fprintf ppf "line %d: %a@," l pp_state st) mst.ls;
    Format.fprintf ppf "@]"
  end

(* Canonical representative over the node × line symmetry group: for each
   admissible node permutation, encode every line (renamed in place, see
   [enc_line]), sort the interchangeable line encodings (all lines under
   the symmetric workload; only same-producer lines under the
   producer-consumer workload, since distinct producers make lines
   distinguishable), and keep the lexicographically least concatenation
   over all permutations.  Self-delimiting parts and params-determined
   group sizes keep the concatenation injective.

   The candidates are built in per-domain scratch writers (the checker
   encodes from several domains at once); only the winner is copied out. *)
type scratch = { mutable cur : writer; mutable best : writer; parts : writer }

let scratch = Domain.DLS.new_key (fun () -> { cur = writer (); best = writer (); parts = writer () })

(* line [a]'s part sorts before line [b]'s: by class, then by bytes; line
   [l]'s part is bytes [start.(l), start.(l + 1)) of [parts] *)
let part_before line_class parts start a b =
  let ca = line_class a and cb = line_class b in
  if ca <> cb then ca < cb
  else
    compare_bytes parts.bytes start.(a) (start.(a + 1) - start.(a)) parts.bytes start.(b)
      (start.(b + 1) - start.(b)) 0
    < 0

let encode_mstate params =
  let perms = Array.of_list (List.map perm_of (model_permutations params)) in
  (* lines are interchangeable only within a class *)
  let line_class l =
    match params.workload with Symmetric -> 0 | Producer_consumer -> l mod (params.nodes - 1)
  in
  fun mst ->
    let s = Domain.DLS.get scratch in
    let lines = Array.length mst.ls in
    let start = Array.make (lines + 1) 0 and order = Array.make lines 0 in
    for i = 0 to Array.length perms - 1 do
      let p = perms.(i) and cur = s.cur in
      cur.len <- 0;
      if lines = 1 then enc_line cur p mst.ls.(0)
      else begin
        let parts = s.parts in
        parts.len <- 0;
        for l = 0 to lines - 1 do
          start.(l) <- parts.len;
          enc_line parts p mst.ls.(l)
        done;
        start.(lines) <- parts.len;
        (* insertion sort: a handful of lines *)
        for l = 0 to lines - 1 do
          let j = ref l in
          while !j > 0 && part_before line_class parts start l order.(!j - 1) do
            order.(!j) <- order.(!j - 1);
            decr j
          done;
          order.(!j) <- l
        done;
        for k = 0 to lines - 1 do
          let l = order.(k) in
          blit cur parts.bytes start.(l) (start.(l + 1) - start.(l))
        done
      end;
      if i = 0 || compare_bytes cur.bytes 0 cur.len s.best.bytes 0 s.best.len 0 < 0 then begin
        s.cur <- s.best;
        s.best <- cur
      end
    done;
    Bytes.sub_string s.best.bytes 0 s.best.len

let validate params =
  if params.nodes < 2 || params.nodes > 7 then
    invalid_arg "Protocol_model: nodes must be in 2..7 (canonicalization \
                 enumerates (nodes-1)! permutations)";
  if params.lines < 1 then invalid_arg "Protocol_model: lines must be >= 1"

let make ?(por = true) params =
  validate params;
  (module struct
    type state = mstate

    let initial = [ initial_mstate params ]

    let labels = line_labels params

    let successors = mstate_successors labels params

    let por =
      if por && params.lines > 1 then Some (mstate_groups labels params) else None

    let invariants = mstate_invariants params

    let is_quiescent = mstate_quiescent params

    let encode = encode_mstate params

    let pp = pp_mstate
  end : Checker.MODEL)

(* ------------------------------------------------------------------ *)
(* Test hooks (symmetry properties)                                     *)
(* ------------------------------------------------------------------ *)

module Sym = struct
  type nonrec mstate = mstate

  let initial = initial_mstate

  let successors params = mstate_successors (line_labels params) params

  let encode = encode_mstate

  let node_permutations = node_permutations

  let rename_nodes perm mst = { ls = Array.map (fun st -> norm (rename_state perm st)) mst.ls }

  let encode_renamed perm mst =
    let w = writer () in
    Array.iter (enc_line w (perm_of perm)) mst.ls;
    Bytes.sub_string w.bytes 0 w.len

  let permute_lines perm mst = { ls = Array.init (Array.length mst.ls) (fun i -> mst.ls.(perm.(i))) }

  (* A symmetry-invariant projection of the observable facts: any two
     states related by a node/line permutation agree on it, so
     [encode a = encode b] must imply [semantic_sig a = semantic_sig b]. *)
  let semantic_sig mst =
    let line_sig st =
      let popcount mask = List.length (bits_list mask) in
      let per_node =
        Array.to_list
          (Array.map
             (fun n ->
               Printf.sprintf "%s/%d/%d"
                 (match n.cache with
                 | CI -> "I"
                 | CS v -> Printf.sprintf "S%d" v
                 | CE v -> Printf.sprintf "E%d" v)
                 n.done_ n.last_seen)
             st.ns)
        |> List.sort String.compare
      in
      Printf.sprintf "%s|%d|%d|%d|%d|%s" (dir_name st.dir) st.mem st.nextv (popcount st.shr)
        (List.length st.net)
        (String.concat "," per_node)
    in
    Array.to_list (Array.map line_sig mst.ls)
    |> List.sort String.compare |> String.concat ";"
end

(* ------------------------------------------------------------------ *)
(* Observable stepping (differential testing)                          *)
(* ------------------------------------------------------------------ *)

(* The packed [Checker.MODEL] hides the state type, which is right for
   exhaustive search but useless for a driver that must steer the model
   along a specific execution and compare observables against the
   simulator.  [Step] re-exposes the same transition system with the
   state abstract-but-inspectable. *)
module Step = struct
  type nonrec state = state

  let initial = initial_state

  let successors params st = all_successors (step_labels params) params st

  let invariants = invariants_list

  let done_count st n = st.ns.(n).done_

  let last_seen st n = st.ns.(n).last_seen

  let has_pending st n = st.ns.(n).pend <> None

  let store_count st = st.nextv

  let net_size st = List.length st.net

  let dir_stable st =
    match st.dir with
    | Busy_shared | Busy_excl -> false
    | Unowned | Shared_s | Excl | Dele -> true

  let final_value st =
    match st.dir with
    | Unowned | Shared_s -> Some st.mem
    | Excl | Busy_shared | Busy_excl -> (
        if st.own < 0 then None
        else
          match st.ns.(st.own).cache with CE v | CS v -> Some v | CI -> None)
    | Dele -> (
        let node = st.ns.(st.own) in
        match node.cache with CE v | CS v -> Some v | CI -> node.rac)

  let error st = st.error

  let pp = pp_state
end
