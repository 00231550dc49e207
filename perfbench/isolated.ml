(* Isolated primitives, timed with bechamel: the ns per call is the
   ordinary-least-squares slope of monotonic-clock time over the number
   of calls per sample.  Each primitive is measured at the shape the
   simulator's hot path uses it. *)

open Bechamel
open Pcc

let quota_s = ref 0.2

let ns_per_call name (f : unit -> unit) =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second !quota_s) ~stabilize:false () in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols clock raw in
  match Hashtbl.find_opt results name with
  | Some est -> (
      match Analyze.OLS.estimates est with
      | Some (ns :: _) when Float.is_finite ns -> Float.max ns 0.0
      | Some _ | None -> failwith ("Isolated: no estimate for " ^ name))
  | None -> failwith ("Isolated: no result for " ^ name)

(* Deterministic pseudo-random table, indexed with a wrapping cursor. *)
let table ~seed ~bound =
  let rng = Rng.create ~seed in
  Array.init 4096 (fun _ -> Rng.int rng ~bound)

(* add + next_time + pop_exn at a constant queue depth: the run loop's
   steady state at the depth Simulator.peak_pending reported. *)
let event_queue_op ~depth =
  let module Q = Pcc_engine.Event_queue in
  let q = Q.create () in
  let deltas = table ~seed:11 ~bound:1000 in
  for i = 0 to max 1 depth - 1 do
    Q.add q ~time:deltas.(i land 4095) ignore
  done;
  let i = ref 0 in
  ns_per_call "event_queue" (fun () ->
      let now = Q.next_time q in
      let _action = Q.pop_exn q in
      incr i;
      Q.add q ~time:(now + deltas.(!i land 4095)) ignore)

(* Cache lookups and inserts at an L2 geometry; keys span twice the
   capacity, so about half the lookups hit. *)
let cache ~lines ~ways =
  let module C = Pcc_memory.Cache in
  let sets = max 1 (lines / ways) in
  let c = C.create ~sets ~ways () in
  let keys = table ~seed:13 ~bound:(2 * sets * ways) in
  Array.iter (fun k -> ignore (C.insert c k k)) keys;
  let i = ref 0 in
  let find_ns =
    ns_per_call "cache.find" (fun () ->
        incr i;
        ignore (Sys.opaque_identity (C.find c keys.(!i land 4095))))
  in
  let insert_ns =
    ns_per_call "cache.insert" (fun () ->
        incr i;
        let k = keys.(!i land 4095) in
        ignore (Sys.opaque_identity (C.insert c k k)))
  in
  (find_ns, insert_ns)

let flight_ring_record () =
  let ring = Pcc_core.Flight_ring.create () in
  let i = ref 0 in
  ns_per_call "flight_ring.record" (fun () ->
      incr i;
      Pcc_core.Flight_ring.record ring ~time:!i ~kind:Pcc_core.Flight_ring.k_recv ~detail:(!i land 15)
        ~src:(!i land 7) ~dst:((!i + 3) land 7) ~line:!i ~arg:0)

(* One pull from a Btrace replay of the files at [paths], cycling
   through their nodes and reopening a replay when it runs out:
   in-buffer varint decode plus the occasional chunk load. *)
let btrace_pull paths =
  let readers =
    Array.of_list
      (List.map
         (fun path ->
           match Btrace.open_file path with
           | Ok r -> r
           | Error msg -> failwith (path ^ ": " ^ msg))
         paths)
  in
  let which = ref 0 and node = ref 0 in
  let feed = ref (Btrace.stream readers.(0)) in
  ns_per_call "btrace.pull" (fun () ->
      if !feed.Op_stream.next !node = Op_stream.end_of_stream then begin
        incr node;
        if !node = !feed.Op_stream.nodes then begin
          node := 0;
          which := (!which + 1) mod Array.length readers;
          feed := Btrace.stream readers.(!which)
        end
      end)

(* [f i]: a model's canonical encoding of its [i]th sample state
   followed by the checker's digest of it. *)
let encode_digest (f : int -> Digest.t) =
  let i = ref 0 in
  ns_per_call "checker.encode_digest" (fun () ->
      incr i;
      ignore (Sys.opaque_identity (f !i)))
