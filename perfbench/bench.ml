(* The four workloads and their untraced (end-to-end) and traced
   (per-layer) runs.  See README.md for what each measures and why. *)

open Pcc

let nodes = 16

type size = Full | Tiny  (* Tiny: the test suite's smoke size *)

(* Why each was chosen: README.md and BENCHMARK.json. *)
let workloads = [ "apps"; "chaos-audited"; "dc-trace"; "mcheck" ]

(* {2 Sizes}  Chosen so a timed pass takes one to two seconds on a
   2-core x86 host, giving several passes per run. *)

let apps_scale = function Full -> 0.35 | Tiny -> 0.02

let chaos_scale = function Full -> 0.12 | Tiny -> 0.02

let chaos_seeds ~seed = function
  | Full -> List.init 3 (fun k -> (seed * 1009) + k + 1)
  | Tiny -> [ seed ]

let dc_events = function Full -> 60_000 | Tiny -> 2_000

let mcheck_bound = function Full -> 15_000 | Tiny -> 200

(* Set-up repetitions per run, about half a second of set-up in all.
   Fixed counts keep everything before the first timed pass, and so
   the heap high-water mark, deterministic. *)
let setup_repeats workload = function
  | Tiny -> 1
  | Full -> (
      match workload with
      | "apps" -> 9
      | "chaos-audited" -> 100
      | "dc-trace" -> 25
      | _ -> 3)

let per_s work s = if s > 0.0 then float_of_int work /. s else 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fi = float_of_int

type summary = { mutable lines : string list }

let note s fmt = Printf.ksprintf (fun l -> s.lines <- s.lines @ [ l ]) fmt

let spread_note s what values =
  let q1, q2, q3 = Qstats.quartiles values in
  note s "%s: median %.6g, quartiles %.6g..%.6g (spread %.2f%%, n=%d)" what q2 q1 q3
    (100.0 *. Qstats.spread values) (List.length values)

(* {2 Checks} *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable comparisons : int;  (* checks made against a pin or a reference *)
  mutable problems : string list;
  mutable seen : (string * string) list;  (* first value of each checked key *)
}

let tally () = { attempted = 0; failed = 0; comparisons = 0; problems = []; seen = [] }

let record t problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    t.problems <- t.problems @ problems
  end

(* [refs] remembers each key's first value, for the repetition check. *)
let compare_value t ~pinned ~refs ~key actual =
  let reference = Hashtbl.find_opt refs key in
  if reference = None then Hashtbl.replace refs key actual;
  if not (List.mem_assoc key t.seen) then t.seen <- t.seen @ [ (key, actual) ];
  if pinned <> None || reference <> None then t.comparisons <- t.comparisons + 1;
  Pins.check ~pinned ~reference ~key actual

let check_run t ~pinned ~refs (r : Sims.run) =
  let row_problem =
    Option.bind r.Sims.result (fun res ->
        compare_value t ~pinned ~refs ~key:r.cell.Sims.label (Sims.row res))
  in
  record t (r.problems @ Option.to_list row_problem)

(* The run is correct only if it attempted something, compared
   something, and nothing failed. *)
let correct t = t.attempted > 0 && t.comparisons > 0 && t.failed = 0

(* {2 Set-up} *)

type setup = {
  cells : Sims.cell list;
  materialize_s : float;  (* app program materialization, 0 if none *)
  traces : string list;  (* recorded Btrace files the cells replay *)
  programs : Types.op list array list;  (* materialized programs, if any *)
}

let materialize ~scale ~seed apps =
  List.map (fun (app : Workloads.app) -> (app, Workloads.programs app ~scale ~seed ~nodes ())) apps

(* Record a generator's ops into a Btrace file; returns the loads and
   stores recorded. *)
let record_trace ~path (g : Dcgen.t) =
  let w = Btrace.Writer.create ~path ~nodes:g.Dcgen.g_nodes () in
  let feed = g.Dcgen.g_stream () in
  let accesses = ref 0 in
  for node = 0 to g.g_nodes - 1 do
    let rec drain () =
      let op = feed.Op_stream.next node in
      if op <> Op_stream.end_of_stream then begin
        Btrace.Writer.add w ~node op;
        let tag = Op_stream.tag op in
        if tag = Op_stream.tag_load || tag = Op_stream.tag_store then incr accesses;
        drain ()
      end
    in
    drain ()
  done;
  Btrace.Writer.close w;
  !accesses

let open_trace path =
  match Btrace.open_file path with
  | Ok r -> r
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let setup_once ~size ~seed ~work_dir = function
  | "apps" ->
      let t0 = Hostclock.cpu_s () in
      let progs = materialize ~scale:(apps_scale size) ~seed Workloads.all in
      let materialize_s = Hostclock.cpu_s () -. t0 in
      let cells =
        List.concat_map
          (fun ((app : Workloads.app), programs) ->
            [
              Sims.of_programs ~label:(app.name ^ "/base") ~config:(Config.base ~nodes ())
                programs;
              Sims.of_programs ~label:(app.name ^ "/small_full")
                ~config:(Config.small_full ~nodes ()) programs;
            ])
          progs
      in
      { cells; materialize_s; traces = []; programs = List.map snd progs }
  | "chaos-audited" ->
      let t0 = Hostclock.cpu_s () in
      let progs =
        materialize ~scale:(chaos_scale size) ~seed [ Workloads.em3d; Workloads.mg ]
      in
      let materialize_s = Hostclock.cpu_s () -. t0 in
      let cells =
        List.concat_map
          (fun ((app : Workloads.app), programs) ->
            List.map
              (fun chaos_seed ->
                Sims.of_programs ~audited:true
                  ~label:(Printf.sprintf "%s/small_full+storm-%d" app.name chaos_seed)
                  ~config:
                    (Config.with_faults (Config.small_full ~nodes ())
                       (Fault.storm ~seed:chaos_seed))
                  programs)
              (chaos_seeds ~seed size))
          progs
      in
      { cells; materialize_s; traces = []; programs = List.map snd progs }
  | "dc-trace" ->
      let events = dc_events size in
      let gens =
        [ Dcgen.kv ~nodes ~seed ~events (); Dcgen.worksteal ~nodes ~seed ~events () ]
      in
      let traced =
        List.map
          (fun (g : Dcgen.t) ->
            let path = Filename.concat work_dir (g.g_name ^ ".pcct") in
            (g, path, record_trace ~path g))
          gens
      in
      let cells =
        List.concat_map
          (fun ((g : Dcgen.t), path, accesses) ->
            let reader = open_trace path in
            List.map
              (fun (cname, config) ->
                {
                  Sims.label = g.g_name ^ "/" ^ cname;
                  config;
                  feed = (fun () -> Btrace.stream reader);
                  accesses;
                  audited = false;
                })
              [ ("small_full", Config.small_full ~nodes ()); ("mesi", Config.snoop ~nodes Types.Mesi ()) ])
          traced
      in
      { cells; materialize_s = 0.0; traces = List.map (fun (_, path, _) -> path) traced; programs = [] }
  | other -> invalid_arg ("unknown simulation workload " ^ other)

(* Set up [repeats] times and report the median normalized time as
   setup_s.  The last set-up is the one used. *)
let setup_timed s repeats once =
  let meter = Refkernel.meter () in
  let times = ref [] and raw = ref [] and last = ref None in
  for _ = 1 to repeats do
    let (v, secs), factor = Refkernel.around meter (fun () -> Hostclock.time once) in
    raw := secs :: !raw;
    times := (secs *. factor) :: !times;
    last := Some v
  done;
  note s "setup: median %.4g s raw, %.4g s normalized (n=%d)" (Qstats.median !raw)
    (Qstats.median !times) repeats;
  (Option.get !last, Qstats.median !times)

(* {2 Simulation workloads} *)

type pass = {
  p_runs : Sims.run list;
  p_ops : int;
  p_cpu : float;
  p_wall : float;
  p_norm : float;  (* CPU seconds normalized for host speed *)
  p_minor : float;
}

let sim_pass t ~meter ~pinned ~refs ?ledger cells =
  let timed =
    List.map
      (fun cell ->
        let r, factor = Refkernel.around meter (fun () -> Sims.run ?ledger cell) in
        check_run t ~pinned ~refs r;
        (r, factor))
      cells
  in
  let runs = List.map fst timed in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  {
    p_runs = runs;
    p_ops = List.fold_left (fun acc (r : Sims.run) -> acc + r.ops) 0 runs;
    p_cpu = sum (fun r -> r.Sims.cpu_s);
    p_wall = sum (fun r -> r.Sims.wall_s);
    p_norm = List.fold_left (fun acc ((r : Sims.run), factor) -> acc +. (r.cpu_s *. factor)) 0.0 timed;
    p_minor = sum (fun r -> r.Sims.minor_words);
  }

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  fi (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run [pass] repeatedly for [seconds] of wall time, at least twice. *)
let repeat ~seconds pass =
  let start = Hostclock.wall_s () in
  let passes = ref [] in
  while List.length !passes < 2 || Hostclock.wall_s () -. start < seconds do
    passes := pass () :: !passes
  done;
  List.rev !passes

let untraced_sim t s ~seconds ~pinned ~setup_s cells =
  let refs = Hashtbl.create 32 in
  let meter = Refkernel.meter () in
  let passes = repeat ~seconds (fun () -> sim_pass t ~meter ~pinned ~refs cells) in
  let rate f = List.map (fun p -> per_s p.p_ops (f p)) passes in
  spread_note s "work_per_s, raw process cpu" (rate (fun p -> p.p_cpu));
  spread_note s "work_per_s, raw wall" (rate (fun p -> p.p_wall));
  spread_note s "work_per_s, normalized" (rate (fun p -> p.p_norm));
  [
    ("work_per_s", Qstats.median (rate (fun p -> p.p_norm)));
    ("minor_words_per_work", Qstats.median (List.map (fun p -> p.p_minor /. fi (max 1 p.p_ops)) passes));
    ("setup_s", setup_s);
  ]

(* Totals over a pass's runs. *)
let sum_stats runs f =
  List.fold_left
    (fun acc (r : Sims.run) -> match r.result with Some res -> acc + f res | None -> acc)
    0 runs

let stat runs f = sum_stats runs (fun res -> f res.System.stats)

let speedup_geomean runs =
  let cycles = Hashtbl.create 16 in
  List.iter
    (fun (r : Sims.run) ->
      Option.iter (fun res -> Hashtbl.replace cycles r.cell.Sims.label res.System.cycles) r.result)
    runs;
  let speedups =
    List.filter_map
      (fun (app : Workloads.app) ->
        match
          ( Hashtbl.find_opt cycles (app.name ^ "/base"),
            Hashtbl.find_opt cycles (app.name ^ "/small_full") )
        with
        | Some b, Some f when f > 0 -> Some (fi b /. fi f)
        | _ -> None)
      Workloads.all
  in
  if speedups = [] then 0.0 else Qstats.geomean speedups

let delegation_per_kop runs ~label =
  List.fold_left
    (fun acc (r : Sims.run) ->
      match r.result with
      | Some res when r.cell.Sims.label = label ->
          1000.0 *. fi res.System.stats.Run_stats.delegations /. fi (max 1 r.ops)
      | Some _ | None -> acc)
    0.0 runs

let traced_sim t s ~workload ~work_dir ~pinned ~setup =
  let refs = Hashtbl.create 32 in
  let meter = Refkernel.meter () in
  let base = sim_pass t ~meter ~pinned ~refs setup.cells in
  let peak_mb = peak_heap_mb () in
  let ledger = Ledger.create () in
  let traced = sim_pass t ~meter ~pinned ~refs ~ledger setup.cells in
  let runs = traced.p_runs in
  let ops = traced.p_ops in
  let per_op v = ratio (fi v) (fi ops) in
  let events = List.fold_left (fun acc (r : Sims.run) -> acc + r.events) 0 runs in
  let peak = List.fold_left (fun acc (r : Sims.run) -> max acc r.peak_pending) 0 runs in
  let l2_hits = stat runs (fun st -> st.Run_stats.l2_hits) in
  let rac_hits = stat runs (fun st -> st.Run_stats.rac_hits) in
  let updates_sent = stat runs (fun st -> st.Run_stats.updates_sent) in
  let consumed = sum_stats runs (fun res -> res.System.updates_consumed) in
  let config = Config.small_full ~nodes () in
  let find_ns, insert_ns =
    Isolated.cache ~lines:(Config.l2_lines config) ~ways:config.Config.l2_ways
  in
  let traces =
    if setup.traces <> [] then setup.traces
    else
      List.mapi
        (fun i programs ->
          let path = Filename.concat work_dir (Printf.sprintf "programs-%d.pcct" i) in
          Btrace.write ~path programs;
          path)
        setup.programs
  in
  let mops = ratio 1e3 (Isolated.btrace_pull traces) in
  if setup.traces = [] then List.iter Sys.remove traces;
  let untraced_rate = per_s base.p_ops base.p_norm in
  let traced_rate = per_s traced.p_ops traced.p_norm in
  let l = ledger in
  let recv_metrics =
    List.concat
      (List.mapi
         (fun i cls ->
           let n = l.Ledger.recv_n.(i) in
           [
             (Metrics.recv_ns_name cls, ratio (fi l.recv_ns.(i)) (fi n));
             (Metrics.recv_per_op_name cls, per_op n);
           ])
         Metrics.classes)
  in
  let speedup = if workload = "apps" then speedup_geomean base.p_runs else 0.0 in
  if speedup > 0.0 then
    note s "sim_speedup_geomean %.4f (paper, small config: 1.13; error %+.1f%%)" speedup
      (100.0 *. ((speedup /. 1.13) -. 1.0));
  let dc label = delegation_per_kop base.p_runs ~label in
  [
    ("peak_heap_mb", peak_mb);
    ("simulator.events_per_op", per_op events);
    ( "simulator.events_per_s",
      per_s (List.fold_left (fun a (r : Sims.run) -> a + r.events) 0 base.p_runs) base.p_norm );
    ("simulator.peak_pending", fi peak);
    ("event_queue.op_ns", Isolated.event_queue_op ~depth:peak);
  ]
  @ recv_metrics
  @ [
      ("node.issue_ns", ratio (fi l.issue_ns) (fi l.issues));
      ("node.other_ns_per_op", per_op l.other_ns);
      ("network.msgs_per_op", per_op (sum_stats runs (fun res -> res.System.network_messages)));
      ("network.bytes_per_op", per_op (sum_stats runs (fun res -> res.System.network_bytes)));
      ("hub_link.retransmits_per_op", per_op (stat runs (fun st -> st.Run_stats.retransmits)));
      ("hub_link.dup_dropped_per_op", per_op (stat runs (fun st -> st.Run_stats.dup_dropped)));
      ("hub_link.timeouts_per_op", per_op (stat runs (fun st -> st.Run_stats.txn_timeouts)));
      ("hub_link.peak_unacked", fi l.peak_unacked);
      ("l2.hit_frac", per_op l2_hits);
      ("rac.hit_frac", ratio (fi rac_hits) (fi (ops - l2_hits)));
      ("delegation.per_kop", 1000.0 *. per_op (stat runs (fun st -> st.Run_stats.delegations)));
      ("rac.update_useful_frac", ratio (fi consumed) (fi updates_sent));
      ("cache.find_ns", find_ns);
      ("cache.insert_ns", insert_ns);
      ("workload.pull_ns_per_op", per_op l.pull_ns);
      ("btrace.decode_mops", mops);
      ("apps.materialize_s", setup.materialize_s);
      ("audit.ns_per_event", ratio (fi l.audit.o_ns) (fi l.events));
      ("recorder.ns_per_event", ratio (fi l.recorder.o_ns) (fi l.events));
      ("observers.time_frac", ratio (fi l.obs_ns) (fi l.run_ns));
      ("flight_ring.record_ns", Isolated.flight_ring_record ());
      ("trace.overhead_frac", 1.0 -. ratio traced_rate untraced_rate);
      ("sim_speedup_geomean", speedup);
      ("dctrace.kv.delegation.per_kop", if workload = "dc-trace" then dc "kv/small_full" else 0.0);
      ( "dctrace.worksteal.delegation.per_kop",
        if workload = "dc-trace" then dc "worksteal/small_full" else 0.0 );
    ]

(* {2 mcheck} *)

type exploration = { x : Mcheck_wl.explored; norm_s : float; minor : float }

let mcheck_pass t ~meter ~pinned ~refs ?probe ~bound models =
  List.map
    (fun (m : Mcheck_wl.model) ->
      let minor0 = Gc.minor_words () in
      let (x, cpu), factor =
        Refkernel.around meter (fun () ->
            Hostclock.time (fun () -> Mcheck_wl.explore ?probe ~max_states:bound m))
      in
      let minor = Gc.minor_words () -. minor0 in
      let problem = compare_value t ~pinned ~refs ~key:m.m_name (string_of_int x.states) in
      record t (Option.to_list x.problem @ Option.to_list problem);
      { x; norm_s = cpu *. factor; minor })
    models

let mcheck_setup ~size () =
  let models = Mcheck_wl.models ~tiny:(size = Tiny) in
  (* warm-up: a short exploration of each model before anything is timed *)
  List.iter (fun m -> ignore (Mcheck_wl.explore ~max_states:(mcheck_bound size / 10) m)) models;
  models

let states_of xs = List.fold_left (fun acc e -> acc + e.x.Mcheck_wl.states) 0 xs

let sum_of xs f = List.fold_left (fun acc e -> acc +. f e) 0.0 xs

let mcheck_rate xs = per_s (states_of xs) (sum_of xs (fun e -> e.norm_s))

let untraced_mcheck t s ~size ~seconds ~pinned ~setup_s models =
  let refs = Hashtbl.create 4 in
  let meter = Refkernel.meter () in
  let bound = mcheck_bound size in
  let passes = repeat ~seconds (fun () -> mcheck_pass t ~meter ~pinned ~refs ~bound models) in
  let rates = List.map mcheck_rate passes in
  spread_note s "work_per_s, normalized" rates;
  [
    ("work_per_s", Qstats.median rates);
    ( "minor_words_per_work",
      Qstats.median
        (List.map (fun xs -> sum_of xs (fun e -> e.minor) /. fi (max 1 (states_of xs))) passes) );
    ("setup_s", setup_s);
  ]

let traced_mcheck t s ~size ~pinned models =
  let bound = mcheck_bound size in
  let refs = Hashtbl.create 4 in
  let meter = Refkernel.meter () in
  let base = mcheck_pass t ~meter ~pinned ~refs ~bound models in
  let peak_mb = peak_heap_mb () in
  let wrapped = mcheck_pass t ~meter ~pinned ~refs ~probe:(Mcheck_wl.probe ()) ~bound models in
  (* exhaustive wrapped explorations: the per-layer split and the
     pinned full state counts *)
  let p = Mcheck_wl.probe () in
  let full =
    List.map
      (fun (m : Mcheck_wl.model) ->
        let r = Mcheck_wl.explore ~probe:p m in
        let problems =
          Option.to_list r.problem
          @ (if r.complete then [] else [ m.m_name ^ ": exploration not exhaustive" ])
          @
          if r.states <> m.full_states then
            [ Printf.sprintf "%s: %d states, pinned %d" m.m_name r.states m.full_states ]
          else []
        in
        t.comparisons <- t.comparisons + 1;
        record t problems;
        note s "%s: %d states, %d transitions (exhaustive: %b)" m.m_name r.states r.transitions
          r.complete;
        r)
      models
  in
  let states = List.fold_left (fun a (r : Mcheck_wl.explored) -> a + r.states) 0 full in
  let transitions = List.fold_left (fun a (r : Mcheck_wl.explored) -> a + r.transitions) 0 full in
  let total_ns = List.fold_left (fun a (r : Mcheck_wl.explored) -> a + r.ns) 0 full in
  let per_state v = ratio (fi v) (fi states) in
  [
    ("peak_heap_mb", peak_mb);
    ("model.successors_ns_per_state", per_state p.succ_ns);
    ("model.encode_ns_per_state", per_state p.encode_ns);
    ("model.encode_bytes", ratio (fi p.encode_bytes) (fi p.encodes));
    ("model.invariants_ns_per_state", per_state p.inv_ns);
    ("checker.rest_ns_per_state", per_state (total_ns - Mcheck_wl.wrapped_ns p));
    ("checker.transitions_per_state", ratio (fi transitions) (fi states));
    ("checker.fresh_frac", ratio (fi states) (fi transitions));
    ("checker.encode_digest_ns", Isolated.encode_digest (Mcheck_wl.encode_digest (List.hd models)));
    ("trace.overhead_frac", 1.0 -. ratio (mcheck_rate wrapped) (mcheck_rate base));
  ]

(* {2 Entry point} *)

let zero_fill values =
  List.map
    (fun (spec : Metrics.spec) ->
      (spec.name, Option.value (List.assoc_opt spec.name values) ~default:0.0))
    Metrics.per_layer

type outcome = {
  values : (string * float) list;
  tally : tally;
  summary : string list;
}

let run ?(size = Full) ?pinned ~workload ~seed ~seconds ~trace ~work_dir () =
  let t = tally () in
  let s = { lines = [] } in
  let pinned =
    match pinned with Some p -> p | None -> if size = Full then Pins.pinned ~workload ~seed else None
  in
  let values =
    match workload with
    | "mcheck" ->
        let models, setup_s = setup_timed s (setup_repeats workload size) (mcheck_setup ~size) in
        if trace then zero_fill (traced_mcheck t s ~size ~pinned models)
        else untraced_mcheck t s ~size ~seconds ~pinned ~setup_s models
    | _ ->
        let setup, setup_s =
          setup_timed s (setup_repeats workload size) (fun () -> setup_once ~size ~seed ~work_dir workload)
        in
        if trace then
          zero_fill (traced_sim t s ~workload ~work_dir ~pinned ~setup)
        else untraced_sim t s ~seconds ~pinned ~setup_s setup.cells
  in
  note s "attempted %d, failed %d, compared %d" t.attempted t.failed t.comparisons;
  { values; tally = t; summary = s.lines }
