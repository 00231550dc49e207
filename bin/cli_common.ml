(* Shared cmdliner vocabulary for the six CLIs.

   Every tool speaks the same flags with the same docstrings; defaults
   differ per tool (a chaos sweep wants 6 nodes at scale 0.15, the
   simulator driver wants the paper's 16 at 0.5), so each term takes its
   default as a parameter.  Tool-specific knobs (fault profiles, model
   bounds, output directories) stay in their own executables. *)

open Cmdliner

(* A bounded integer flag: a value outside [min..max] is a usage error
   (exit 124) whose message is [reason n], never an assertion deep inside
   the simulator or the model checker. *)
let bounded_int ?(max = max_int) ~min reason =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < min || n > max -> Error (`Msg (reason n))
    | result -> result
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* Sharing vectors hold at most [Nodeset.max_nodes] nodes, and a machine
   needs two to share anything; the model checker passes a smaller [max]. *)
let nodes ?(default = 16) ?(max = Pcc.Nodeset.max_nodes) ?(doc = "Number of nodes.") () =
  let count =
    bounded_int ~min:2 ~max (fun n ->
        Printf.sprintf "%d nodes is out of range (need 2..%d)" n max)
  in
  let doc = Printf.sprintf "%s  Between 2 and %d." doc max in
  Arg.(value & opt count default & info [ "n"; "nodes" ] ~docv:"N" ~doc)

(* A run scaled to zero (or to nan) issues no operations and would pass
   vacuously: a scale that is not a finite positive number is a usage
   error (exit 124). *)
let scale ?(default = 0.5) ?(doc = "Run-length scale.") () =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (Float.is_finite x && x > 0.0) ->
        Error (`Msg (Printf.sprintf "scale %s would run nothing (need a finite S > 0)" s))
    | result -> result
  in
  let positive = Arg.conv (parse, Arg.conv_printer Arg.float) in
  let doc = doc ^ "  A finite number above 0." in
  Arg.(value & opt positive default & info [ "s"; "scale" ] ~docv:"S" ~doc)

let seed ?(default = 1) ?(doc = "Workload seed.") () =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

(* A sweep over zero seeds verifies nothing, so it must not pass: N < 1
   is a usage error (exit 124), like an unknown --protocol name. *)
let seeds ?(default = 50) ?(doc = "Number of seeds to sweep (at least 1).") () =
  let count =
    bounded_int ~min:1 (Printf.sprintf "%d seeds would verify nothing (need N >= 1)")
  in
  Arg.(value & opt count default & info [ "seeds" ] ~docv:"N" ~doc)

(* Workload selection: the [--workload NAME[:k=v,...]] spec grammar over
   the Workload registry.  Parsing to a Workload.packed happens in
   [resolve_workload] (not an Arg.conv) so unknown names and keys exit 2
   with a suggestion list, mirroring the --protocol loud-rejection
   contract. *)
let workload ?(default = "em3d") () =
  let doc =
    Printf.sprintf
      "Workload spec: $(i,NAME) or $(i,NAME:key=value,...).  Names: %s.  Unknown \
       names and keys are rejected (exit 2)."
      (String.concat ", " (Pcc.Workload.names ()))
  in
  Arg.(value & opt string default & info [ "w"; "workload" ] ~docv:"SPEC" ~doc)

let resolve_workload ~tool ~nodes ~scale ~seed spec =
  match Pcc.Workload.of_spec ~nodes ~scale ~seed spec with
  | Ok w -> w
  | Error message ->
      Printf.eprintf "%s: %s\n" tool message;
      exit 2

(* The seeded sweep pcc_oracle and pcc_chaos share: each seed pairs the
   random workload with one of the paper's seven apps, in rotation, or
   runs the one spec [--workload] pins (checked before any run, exit 2). *)
let workload_pin ~what () =
  let doc =
    Printf.sprintf
      "Pin every %s to one workload spec ($(i,NAME) or $(i,NAME:key=value,...)) \
       instead of the random + rotating-benchmark pair per seed."
      what
  in
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"SPEC" ~doc)

let check_workload_pin ~tool ~nodes ~scale pin =
  Option.iter (fun spec -> ignore (resolve_workload ~tool ~nodes ~scale ~seed:1 spec)) pin

let sweep_benches ~workload_pin seed =
  match workload_pin with
  | Some spec -> [ spec ]
  | None ->
      let apps = Pcc.Workloads.all in
      let app = List.nth apps ((seed - 1) mod List.length apps) in
      [ "random"; String.lowercase_ascii app.Pcc.Workloads.name ]

(* Output paths are checked when the command line is read, before any
   run: a missing or read-only directory would otherwise surface as an
   uncaught Sys_error after the whole run.  A bad path exits 2, named.
   A directory flag ([~dir:true]) is created first when missing. *)
let check_output ?(dir = false) ~flag path =
  if dir then (try Sys.mkdir path 0o755 with Sys_error _ -> ());
  let probe_dir = if dir then path else Filename.dirname path in
  let writable =
    (dir || not (Sys.file_exists path && Sys.is_directory path))
    &&
    match Filename.temp_file ~temp_dir:probe_dir "pcc" ".probe" with
    | probe ->
        Sys.remove probe;
        true
    | exception Sys_error _ -> false
  in
  if not writable then begin
    Printf.eprintf "%s: cannot write %s %s\n"
      (Filename.remove_extension (Filename.basename Sys.executable_name))
      flag path;
    exit 2
  end;
  path

(* An optional [--NAME PATH] output flag, checked as above. *)
let output_path ~doc long =
  let flag = "--" ^ long in
  Term.(
    const (Option.map (check_output ~flag))
    $ Arg.(value & opt (some string) None & info [ long ] ~docv:"PATH" ~doc))

(* Config/machine selection: pcc_sim calls it --machine, the trace tool
   --config; both mean the same names. *)
let config ?(names = [ "m"; "machine" ]) ?(default = "full")
    ?(doc = "Machine configuration: base, rac, delegation, small/full, large.") () =
  Arg.(value & opt string default & info names ~docv:"MACHINE" ~doc)

(* Backend selection.  The converter rejects unknown names loudly (usage
   error, exit 124) instead of silently falling back to a default — a
   typo like --protocol mosi must never masquerade as an adaptive run. *)
let protocol_conv =
  let parse s =
    match Pcc.Protocol.of_string s with Ok p -> Ok p | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Pcc.Protocol.to_string p))

let protocol
    ?(doc =
      "Coherence backend: $(b,adaptive) (the paper's directory protocol), $(b,msi) or \
       $(b,mesi) (bus snooping).") () =
  Arg.(value & opt protocol_conv Pcc.Protocol.Adaptive & info [ "protocol" ] ~docv:"PROTO" ~doc)

(* [what] names the unit of concurrency in the docstring ("settings",
   "chaotic runs", ...). *)
let jobs ?(what = "runs") () =
  let doc =
    Printf.sprintf
      "Run up to $(docv) %s concurrently (default: PCC_JOBS or available cores; 1 = \
       sequential).  Results are bit-identical at every level."
      what
  in
  Arg.(value & opt int (Pcc.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let json ?(doc = "Write machine-readable results to $(docv).") () =
  output_path ~doc "json"

let metrics ?(doc_suffix = "") () =
  let doc =
    "Write a unified metrics snapshot to $(docv) on exit: $(b,*.json) gets the \
     JSON registry snapshot, any other extension the OpenMetrics text \
     exposition.  Deterministic: sorted by (name, labels) and byte-identical \
     at every --jobs level." ^ doc_suffix
  in
  output_path ~doc "metrics"

(* Every tool funnels its exit through this: build the registry only when
   the user asked for the file, so default runs stay write-free. *)
let write_metrics path fill =
  match path with
  | None -> ()
  | Some path ->
      let registry = Pcc.Telemetry.Registry.create () in
      fill registry;
      Pcc.Telemetry.Registry.add_pool registry;
      Pcc.Telemetry.Registry.write registry ~path

let max_events ?(default = 50_000_000) ?(doc = "Event budget per run.") () =
  Arg.(value & opt int default & info [ "max-events" ] ~docv:"N" ~doc)

(* Exploring zero states checks nothing: N < 1 is a usage error. *)
let max_states ?(default = 3_000_000) ?(doc = "Model-checker exploration bound (states).")
    () =
  let count =
    bounded_int ~min:1 (Printf.sprintf "%d states would check nothing (need N >= 1)")
  in
  Arg.(value & opt count default & info [ "max-states" ] ~docv:"N" ~doc)

let verbose ~doc () = Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
