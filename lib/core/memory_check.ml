(* Per line we keep the most recent writes as (commit_time, value, writer)
   in a fixed circular buffer, newest at [head-1], plus the newest version
   each node has observed.  Store values come from one globally increasing
   version counter, so the store order of a line is its version order and
   "older" is plain integer comparison.

   A load that started at [s] and committed at [t] may legally return any
   value committed in [s, t], or the newest value committed before [s].
   The window is bounded; in a blocking-processor system a load overlaps
   at most a handful of writes, so a modest window never produces false
   positives in practice.  Committing costs no allocation: the arrays are
   made once per line. *)

let history_window = 32 (* power of two: slot arithmetic is a mask *)

let max_reports = 16

type hist = {
  times : int array;
  values : int array;
  writers : int array;  (* committing node per slot; -1 = "initial value" *)
  seen : int array;  (* per node: newest version observed (0 = none) *)
  mutable head : int;  (* next slot to write; newest entry is head-1 *)
  mutable count : int;
}

type t = {
  nodes : int;
  history : (Types.line, hist) Hashtbl.t;
  mutable violations : int;
  mutable reports : string list;
}

let create ~nodes = { nodes; history = Hashtbl.create 1024; violations = 0; reports = [] }

let push h ~time ~value ~writer =
  h.times.(h.head) <- time;
  h.values.(h.head) <- value;
  h.writers.(h.head) <- writer;
  h.head <- (h.head + 1) land (history_window - 1);
  if h.count < history_window then h.count <- h.count + 1

let cell t line =
  match Hashtbl.find t.history line with
  | h -> h
  | exception Not_found ->
      let h =
        {
          times = Array.make history_window 0;
          values = Array.make history_window 0;
          writers = Array.make history_window (-1);
          seen = Array.make t.nodes 0;
          head = 0;
          count = 0;
        }
      in
      (* memory is zero-initialized "before time" *)
      push h ~time:(-1) ~value:0 ~writer:(-1);
      Hashtbl.add t.history line h;
      h

(* kth-newest slot index, k in [0, count) *)
let slot h k = (h.head - 1 - k) land (history_window - 1)

(* Newest-first scan from the kth entry: values committed after [started]
   are all legal; the first one at or before [started] is the last legal
   one. *)
let rec legal h ~started ~value k =
  if k >= h.count then false
  else
    let i = slot h k in
    if h.times.(i) > started then h.values.(i) = value || legal h ~started ~value (k + 1)
    else h.values.(i) = value

let recent_string h n =
  List.init (min n h.count) (fun k ->
      let i = slot h k in
      Printf.sprintf "%d@%d" h.values.(i) h.times.(i))
  |> String.concat ", "

let flag t line fmt =
  Printf.ksprintf
    (fun s ->
      t.violations <- t.violations + 1;
      if List.length t.reports < max_reports then
        t.reports <-
          Printf.sprintf "line %d@%d: %s"
            (Types.Layout.index_of_line line)
            (Types.Layout.home_of_line line)
            s
          :: t.reports)
    fmt

let store_committed t ~node line ~value ~time =
  let h = cell t line in
  let newest = h.values.(slot h 0) in
  (* Every version a node has seen is at most the newest, so coWW also
     covers a store below the storing node's own observations. *)
  if value <= newest then
    flag t line "node %d stored version %d after version %d by node %d" node value newest
      h.writers.(slot h 0)
  else h.seen.(node) <- value;
  push h ~time ~value ~writer:node

let load_committed t ~node line ~value ~started ~time =
  let h = cell t line in
  if value < h.seen.(node) then begin
    flag t line "node %d observed version %d after version %d" node value h.seen.(node);
    false
  end
  else if legal h ~started ~value 0 then begin
    h.seen.(node) <- value;
    true
  end
  else begin
    flag t line "node %d load started@%d committed@%d read %d; legal history: %s" node
      started time value (recent_string h 6);
    false
  end

(* Fail-stop crash: the victim's newest committed stores may exist only in
   its (now lost) cache.  Recovery rebuilds each line from the freshest
   value still materialized in home memory or a live cache, so any history
   entry that is (a) written by the victim and (b) newer than that
   surviving value can never be observed again — survivors reading the
   rebuilt value must not be flagged against a vanished version.  Only the
   newest run of such entries is dropped: anything below a survivor's
   write (or a materialized victim write) was globally visible.  For the
   same reason no survivor is held to having seen more than the surviving
   value, and the victim's observations die with it: its restarted
   incarnation legally re-reads older values. *)
let crash_forget t ~dead ~surviving =
  Hashtbl.iter
    (fun line h ->
      let surv = lazy (surviving line) in
      let forgetting = ref true in
      while !forgetting && h.count > 0 do
        let i = slot h 0 in
        if h.writers.(i) = dead && h.values.(i) > Lazy.force surv then begin
          h.head <- (h.head - 1) land (history_window - 1);
          h.count <- h.count - 1
        end
        else forgetting := false
      done;
      (* the whole window vanished: the surviving value is the baseline *)
      if h.count = 0 then push h ~time:(-1) ~value:(Lazy.force surv) ~writer:(-1);
      Array.iteri
        (fun n seen ->
          if n = dead then h.seen.(n) <- 0
          else if seen > Lazy.force surv then h.seen.(n) <- Lazy.force surv)
        h.seen)
    t.history

let violations t = t.violations

let violation_report t = List.rev t.reports
