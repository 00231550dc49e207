open Pcc_core
module Jsonl = Pcc_stats.Jsonl

type run_desc = {
  bench : string;
  config_name : string;
  nodes : int;
  scale : float;
  seed : int;
  fault : bool;
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
  {
    base with
    Config.seed = desc.seed;
    inject_fault = (if desc.fault then Some Config.Stale_update_no_resharing else None);
  }

let programs_of_desc desc =
  match
    Pcc_workload.Workload.of_spec ~nodes:desc.nodes ~scale:desc.scale
      ~seed:desc.seed desc.bench
  with
  | Ok workload -> Pcc_workload.Workload.programs workload
  | Error message -> invalid_arg (Printf.sprintf "Trace.programs_of_desc: %s" message)

(* ------------------------------------------------------------------ *)
(* JSONL encoding                                                      *)
(* ------------------------------------------------------------------ *)

let desc_to_json desc =
  Jsonl.Obj
    [
      ("kind", Jsonl.String "run");
      ("bench", Jsonl.String desc.bench);
      ("config", Jsonl.String desc.config_name);
      ("nodes", Jsonl.Int desc.nodes);
      ("scale", Jsonl.Float desc.scale);
      ("seed", Jsonl.Int desc.seed);
      ("fault", Jsonl.Bool desc.fault);
    ]

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

let read_desc ~path =
  match In_channel.with_open_text path In_channel.input_line with
  | None -> Error (Printf.sprintf "%s: empty trace file" path)
  | exception Sys_error message -> Error message
  | Some header -> (
      match Jsonl.of_string header with
      | Error message -> Error (Printf.sprintf "%s: bad header: %s" path message)
      | Ok json -> (
          let str key = Option.bind (Jsonl.member key json) Jsonl.get_string in
          let int key = Option.bind (Jsonl.member key json) Jsonl.get_int in
          let flt key = Option.bind (Jsonl.member key json) Jsonl.get_float in
          let bool key = Option.bind (Jsonl.member key json) Jsonl.get_bool in
          match (str "kind", str "bench", str "config", int "nodes", flt "scale", int "seed") with
          | Some "run", Some bench, Some config_name, Some nodes, Some scale, Some seed ->
              Ok
                {
                  bench;
                  config_name;
                  nodes;
                  scale;
                  seed;
                  fault = Option.value (bool "fault") ~default:false;
                }
          | _ -> Error (Printf.sprintf "%s: header is not a run descriptor" path)))
