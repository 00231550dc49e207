(* The declared metrics (BENCHMARK.json mirrors these lists; the test
   suite checks that the two agree) and the result line.

   End-to-end metrics are emitted by every workload's untraced run;
   per-layer metrics by every workload's traced run.  A layer a
   workload does not load reports 0 there (for example the model-checker
   layer on the simulation workloads). *)

type better = Lower | Higher

type spec = { name : string; unit : string; better : better; bound : float option }

let e name unit better bound = { name; unit; better; bound = Some bound }

let l name unit better = { name; unit; better; bound = None }

(* One unit of work is a committed load or store on the simulation
   workloads and a distinct explored state on mcheck. *)
let end_to_end =
  [
    e "work_per_s" "1/s" Higher 0.25;
    e "minor_words_per_work" "words" Lower 0.05;
    e "setup_s" "s" Lower 0.25;
  ]

(* Every message class, in Message.class_index order; a class a
   workload never delivers reports 0 there. *)
let classes = List.init Pcc.Message.class_count Pcc.Message.class_index_name

let recv_ns_name cls = "node.recv_ns." ^ cls

let recv_per_op_name cls = "node.recv_per_op." ^ cls

let per_layer =
  [
    l "peak_heap_mb" "MB" Lower;
    l "simulator.events_per_op" "count" Lower;
    l "simulator.events_per_s" "1/s" Higher;
    l "simulator.peak_pending" "count" Lower;
    l "event_queue.op_ns" "ns" Lower;
  ]
  @ List.map (fun c -> l (recv_ns_name c) "ns" Lower) classes
  @ List.map (fun c -> l (recv_per_op_name c) "count" Lower) classes
  @ [
      l "node.issue_ns" "ns" Lower;
      l "node.other_ns_per_op" "ns" Lower;
      l "network.msgs_per_op" "count" Lower;
      l "network.bytes_per_op" "bytes" Lower;
      l "hub_link.retransmits_per_op" "count" Lower;
      l "hub_link.dup_dropped_per_op" "count" Lower;
      l "hub_link.timeouts_per_op" "count" Lower;
      l "hub_link.peak_unacked" "count" Lower;
      l "l2.hit_frac" "fraction" Higher;
      l "rac.hit_frac" "fraction" Higher;
      l "delegation.per_kop" "count" Higher;
      l "rac.update_useful_frac" "fraction" Higher;
      l "cache.find_ns" "ns" Lower;
      l "cache.insert_ns" "ns" Lower;
      l "workload.pull_ns_per_op" "ns" Lower;
      l "btrace.decode_mops" "Mrecords/s" Higher;
      l "apps.materialize_s" "s" Lower;
      l "audit.ns_per_event" "ns" Lower;
      l "recorder.ns_per_event" "ns" Lower;
      l "observers.time_frac" "fraction" Lower;
      l "flight_ring.record_ns" "ns" Lower;
      l "model.successors_ns_per_state" "ns" Lower;
      l "model.encode_ns_per_state" "ns" Lower;
      l "model.encode_bytes" "bytes" Lower;
      l "model.invariants_ns_per_state" "ns" Lower;
      l "checker.rest_ns_per_state" "ns" Lower;
      l "checker.transitions_per_state" "count" Lower;
      l "checker.fresh_frac" "fraction" Higher;
      l "checker.encode_digest_ns" "ns" Lower;
      l "trace.overhead_frac" "fraction" Lower;
      l "sim_speedup_geomean" "x" Higher;
      l "dctrace.kv.delegation.per_kop" "count" Higher;
      l "dctrace.worksteal.delegation.per_kop" "count" Lower;
    ]

let declared ~trace = if trace then per_layer else end_to_end

(* [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let better_name = function Lower -> "lower" | Higher -> "higher"

(* JSON numbers with all their digits; a non-finite value (an empty
   denominator) is a program error, reported as such. *)
let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Metrics.number: non-finite metric value"

(* The result line: [values] must name exactly the declared metrics,
   whose names and units need no JSON escaping. *)
let result_line ~trace ~correct ~attempted ~failed values =
  let specs = declared ~trace in
  let field spec =
    match List.assoc_opt spec.name values with
    | Some v ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" spec.name (number v)
          spec.unit
    | None -> invalid_arg ("Metrics.result_line: metric not measured: " ^ spec.name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field specs))
