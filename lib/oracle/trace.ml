open Pcc_core
module Fault = Pcc_interconnect.Fault
module Jsonl = Pcc_stats.Jsonl

type net = {
  profile : string;
  chaos_seed : int;
  crashes : Fault.crash list;
  txn_timeout : int;
  fallback_threshold : int;
}

type run_desc = {
  bench : string;
  config_name : string;
  nodes : int;
  scale : float;
  seed : int;
  fault : bool;
  net : net option;
}

(* ------------------------------------------------------------------ *)
(* Descriptor -> system                                                *)
(* ------------------------------------------------------------------ *)

let config_of_desc desc =
  let base =
    match desc.config_name with
    | "base" -> Config.base ~nodes:desc.nodes ()
    | "rac" -> Config.rac_only ~nodes:desc.nodes ()
    | "delegation" -> Config.delegation_only ~nodes:desc.nodes ()
    | "full" -> Config.full ~nodes:desc.nodes ()
    | "msi" -> Config.snoop ~nodes:desc.nodes Types.Msi ()
    | "mesi" -> Config.snoop ~nodes:desc.nodes Types.Mesi ()
    | other -> invalid_arg (Printf.sprintf "Trace.config_of_desc: unknown config %S" other)
  in
  let config =
    {
      base with
      Config.seed = desc.seed;
      inject_fault = (if desc.fault then Some Config.Stale_update_no_resharing else None);
    }
  in
  match desc.net with
  | None -> config
  | Some net ->
      let profile =
        match (Fault.preset net.profile ~seed:net.chaos_seed, net.profile) with
        | Some profile, _ -> profile
        | None, "zero" -> Fault.zero
        | None, name ->
            invalid_arg (Printf.sprintf "Trace.config_of_desc: unknown fault profile %S" name)
      in
      {
        config with
        Config.net_faults = Some { profile with crashes = net.crashes };
        txn_timeout = net.txn_timeout;
        fallback_threshold = net.fallback_threshold;
      }

let workload_of_desc desc =
  match
    Pcc_workload.Workload.of_spec ~nodes:desc.nodes ~scale:desc.scale
      ~seed:desc.seed desc.bench
  with
  | Ok workload -> workload
  | Error message -> invalid_arg (Printf.sprintf "Trace.workload_of_desc: %s" message)

let programs_of_desc desc = Pcc_workload.Workload.programs (workload_of_desc desc)

(* ------------------------------------------------------------------ *)
(* JSONL encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* A crash is a [victim, crash_at, restart_after] triple, [null] for a
   victim that never restarts. *)
let net_to_json net =
  let crash (c : Fault.crash) =
    Jsonl.List
      [
        Jsonl.Int c.victim;
        Jsonl.Int c.crash_at;
        Option.fold c.restart_after ~none:Jsonl.Null ~some:(fun n -> Jsonl.Int n);
      ]
  in
  Jsonl.Obj
    [
      ("profile", Jsonl.String net.profile);
      ("chaos_seed", Jsonl.Int net.chaos_seed);
      ("crashes", Jsonl.List (List.map crash net.crashes));
      ("txn_timeout", Jsonl.Int net.txn_timeout);
      ("fallback_threshold", Jsonl.Int net.fallback_threshold);
    ]

(* The network part is written only when present, so fault-free headers
   keep the byte layout existing artifacts and golden outputs have. *)
let desc_to_json desc =
  Jsonl.Obj
    ([
       ("kind", Jsonl.String "run");
       ("bench", Jsonl.String desc.bench);
       ("config", Jsonl.String desc.config_name);
       ("nodes", Jsonl.Int desc.nodes);
       ("scale", Jsonl.Float desc.scale);
       ("seed", Jsonl.Int desc.seed);
       ("fault", Jsonl.Bool desc.fault);
     ]
    @ match desc.net with Some net -> [ ("net", net_to_json net) ] | None -> [])

let write ~path ~desc ~violations ~flight =
  Pcc_stats.Atomic_file.write ~path
    (fun oc ->
      let line json =
        output_string oc (Jsonl.to_string json);
        output_char oc '\n'
      in
      line (desc_to_json desc);
      List.iter
        (fun message ->
          line
            (Jsonl.Obj
               [ ("kind", Jsonl.String "violation"); ("message", Jsonl.String message) ]))
        violations;
      Option.iter (fun dump -> line (Flight_ring.dump_to_json dump)) flight)

let ( let* ) = Option.bind

let field get key json = Option.bind (Jsonl.member key json) get

let net_of_json json =
  let crash = function
    | Jsonl.List [ Jsonl.Int victim; Jsonl.Int crash_at; restart ] ->
        Some { Fault.victim; crash_at; restart_after = Jsonl.get_int restart }
    | _ -> None
  in
  let* profile = field Jsonl.get_string "profile" json in
  let* chaos_seed = field Jsonl.get_int "chaos_seed" json in
  let* txn_timeout = field Jsonl.get_int "txn_timeout" json in
  let* fallback_threshold = field Jsonl.get_int "fallback_threshold" json in
  let* crashes = field Jsonl.get_list "crashes" json in
  let parsed = List.filter_map crash crashes in
  if List.compare_lengths parsed crashes <> 0 then None
  else Some { profile; chaos_seed; crashes = parsed; txn_timeout; fallback_threshold }

let read_desc ~path =
  match In_channel.with_open_text path In_channel.input_line with
  | None -> Error (Printf.sprintf "%s: empty trace file" path)
  | exception Sys_error message -> Error message
  | Some header -> (
      match Jsonl.of_string header with
      | Error message -> Error (Printf.sprintf "%s: bad header: %s" path message)
      | Ok json -> (
          let str key = field Jsonl.get_string key json in
          let int key = field Jsonl.get_int key json in
          let scale = field Jsonl.get_float "scale" json in
          (* [Some None]: no network part; [None]: a malformed one *)
          let net =
            match Jsonl.member "net" json with
            | None -> Some None
            | Some part -> Option.map Option.some (net_of_json part)
          in
          match (str "kind", str "bench", str "config", int "nodes", scale, int "seed", net) with
          | Some "run", Some bench, Some config_name, Some nodes, Some scale, Some seed, Some net ->
              Ok
                {
                  bench;
                  config_name;
                  nodes;
                  scale;
                  seed;
                  fault = Option.value (field Jsonl.get_bool "fault" json) ~default:false;
                  net;
                }
          | _ -> Error (Printf.sprintf "%s: header is not a run descriptor" path)))
