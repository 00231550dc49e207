type fault = Stale_update_no_resharing | Snoop_upgr_skips_invals

type t = {
  nodes : int;
  protocol : Types.protocol;
  l2_bytes : int;
  l2_ways : int;
  l2_hit_latency : int;
  line_bytes : int;
  rac_enabled : bool;
  rac_bytes : int;
  rac_ways : int;
  rac_hit_latency : int;
  dir_cache_entries : int;
  dir_cache_ways : int;
  dir_hit_latency : int;
  dir_miss_latency : int;
  dram_latency : int;
  delegation_enabled : bool;
  delegate_entries : int;
  delegate_ways : int;
  speculative_updates : bool;
  intervention_delay : int;
  adaptive_intervention : bool;
  flush_window : int;
  write_repeat_threshold : int;
  reader_count_bits : int;
  hub_latency : int;
  nack_retry_delay : int;
  barrier_latency : int;
  network : Pcc_interconnect.Network.config;
  net_faults : Pcc_interconnect.Fault.profile option;
  link_rto : int;
  link_rto_cap : int;
  txn_timeout : int;
  txn_timeout_cap : int;
  fallback_threshold : int;
  crash_detect_delay : int;
  watchdog_interval : int;
  watchdog_checks : int;
  seed : int;
  inject_fault : fault option;
}

let kib n = n * 1024

let mib n = n * 1024 * 1024

let base ?(nodes = 16) () =
  {
    nodes;
    protocol = Types.Adaptive;
    l2_bytes = mib 2;
    l2_ways = 4;
    l2_hit_latency = 10;
    line_bytes = Pcc_memory.Address.line_size;
    rac_enabled = false;
    rac_bytes = kib 32;
    rac_ways = 4;
    rac_hit_latency = 30;
    dir_cache_entries = 8192;
    dir_cache_ways = 4;
    dir_hit_latency = 8;
    dir_miss_latency = 60;
    dram_latency = 200;
    delegation_enabled = false;
    delegate_entries = 32;
    delegate_ways = 4;
    speculative_updates = false;
    intervention_delay = 50;
    adaptive_intervention = false;
    flush_window = 2000;
    write_repeat_threshold = 3;
    reader_count_bits = 2;
    hub_latency = 4;
    nack_retry_delay = 50;
    barrier_latency = 200;
    network = Pcc_interconnect.Network.default_config;
    net_faults = None;
    link_rto = 500;
    link_rto_cap = 8_000;
    txn_timeout = 5_000;
    txn_timeout_cap = 80_000;
    fallback_threshold = 3;
    crash_detect_delay = 1_500;
    watchdog_interval = 100_000;
    watchdog_checks = 10;
    seed = 42;
    inject_fault = None;
  }

let rac_only ?nodes ?(rac_bytes = kib 32) () =
  { (base ?nodes ()) with rac_enabled = true; rac_bytes }

let delegation_only ?nodes ?(rac_bytes = kib 32) ?(delegate_entries = 32) () =
  {
    (base ?nodes ()) with
    rac_enabled = true;
    rac_bytes;
    delegation_enabled = true;
    delegate_entries;
    speculative_updates = false;
  }

let full ?nodes ?(rac_bytes = kib 32) ?(delegate_entries = 32) () =
  {
    (base ?nodes ()) with
    rac_enabled = true;
    rac_bytes;
    delegation_enabled = true;
    delegate_entries;
    speculative_updates = true;
  }

let small_full ?nodes () = full ?nodes ~rac_bytes:(kib 32) ~delegate_entries:32 ()

(* A snooping machine: the adaptive extensions are inert, so disable them
   to keep [describe] honest about what the run exercised. *)
let snoop ?nodes protocol () =
  assert (protocol <> Types.Adaptive);
  { (base ?nodes ()) with protocol }

let large_full ?nodes () = full ?nodes ~rac_bytes:(mib 1) ~delegate_entries:1024 ()

let with_hop_latency t hop_latency = { t with network = { t.network with hop_latency } }

let with_faults t profile = { t with net_faults = Some profile }

let hardened t = t.net_faults <> None

let crash_capable t =
  match t.net_faults with
  | Some p -> p.Pcc_interconnect.Fault.crashes <> []
  | None -> false

let l2_lines t = t.l2_bytes / t.line_bytes

let rac_lines t = t.rac_bytes / t.line_bytes

let validate t =
  let sets field ~unit entries ~ways =
    if entries > 0 && ways > 0 && entries mod ways = 0 then None
    else
      Some
        (Printf.sprintf "%s: %d %s, need a positive multiple of %d ways" field entries unit
           ways)
  in
  let delay field cycles =
    if cycles >= 0 then None else Some (Printf.sprintf "%s: %d cycles, need at least 0" field cycles)
  in
  if t.line_bytes <= 0 then Error (Printf.sprintf "line_bytes: %d, need above 0" t.line_bytes)
  else
    match
      List.find_map Fun.id
        [
          sets "l2_bytes" (l2_lines t) ~unit:"lines" ~ways:t.l2_ways;
          sets "rac_bytes" (rac_lines t) ~unit:"lines" ~ways:t.rac_ways;
          sets "dir_cache_entries" t.dir_cache_entries ~unit:"entries" ~ways:t.dir_cache_ways;
          sets "delegate_entries" t.delegate_entries ~unit:"entries" ~ways:t.delegate_ways;
          delay "l2_hit_latency" t.l2_hit_latency;
          delay "rac_hit_latency" t.rac_hit_latency;
          delay "dir_hit_latency" t.dir_hit_latency;
          delay "dir_miss_latency" t.dir_miss_latency;
          delay "dram_latency" t.dram_latency;
          delay "intervention_delay" t.intervention_delay;
          delay "flush_window" t.flush_window;
          delay "hub_latency" t.hub_latency;
          delay "nack_retry_delay" t.nack_retry_delay;
          delay "barrier_latency" t.barrier_latency;
          delay "hop_latency" t.network.hop_latency;
          delay "local_latency" t.network.local_latency;
          delay "link_rto" t.link_rto;
          delay "link_rto_cap" t.link_rto_cap;
          delay "txn_timeout" t.txn_timeout;
          delay "txn_timeout_cap" t.txn_timeout_cap;
          delay "crash_detect_delay" t.crash_detect_delay;
        ]
    with
    | None -> Ok t
    | Some problem -> Error problem

let size_label bytes =
  if bytes >= mib 1 && bytes mod mib 1 = 0 then Printf.sprintf "%dM" (bytes / mib 1)
  else Printf.sprintf "%dK" (bytes / kib 1)

let describe t =
  match t.protocol with
  | Types.Msi -> "MSI snoop"
  | Types.Mesi -> "MESI snoop"
  | Types.Adaptive ->
  if not t.rac_enabled then "Base"
  else if not t.delegation_enabled then Printf.sprintf "%s RAC" (size_label t.rac_bytes)
  else
    Printf.sprintf "%d-entry deledc & %s RAC%s" t.delegate_entries (size_label t.rac_bytes)
      (if t.speculative_updates then "" else " (no updates)")

let table1 =
  [
    ("Processor", "4-issue, 48-entry active list, 2GHz");
    ("L1 I-cache", "2-way, 32KB, 64B lines, 1-cycle lat.");
    ("L1 D-cache", "2-way, 32KB, 32B lines, 2-cycle lat.");
    ("L2 cache", "4-way, 2MB, 128B lines, 10-cycle lat.");
    ("System bus", "16B CPU to system, 8B system to CPU");
    ("Hub clock", "1GHz, max 16 outstanding L2C misses");
    ("DRAM", "4 16-byte-data DDR channels, 200 cycles");
    ("Network", "100 processor cycles latency per hop");
  ]
