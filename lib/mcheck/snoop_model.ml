open Pcc_core
module Rules = Snoop_rules

type params = {
  nodes : int;
  lines : int;
  variant : Types.protocol;
  max_ops_per_node : int;
  bug : Config.fault option;
}

let default_params =
  { nodes = 3; lines = 1; variant = Types.Msi; max_ops_per_node = 2; bug = None }

(* One line across the machine.  Values are store versions from a
   per-line counter, so "the newest value" is a comparison. *)
type line = {
  copies : Rules.copy array;  (** per node *)
  values : int array;  (** per node: the version a copy other than I holds *)
  mem : int;  (** home memory's version of the line *)
  vers : int;  (** newest version handed out; 0 = initial value *)
  remaining : int array;  (** operations each node may still issue *)
  seen : int array;  (** newest version each node has observed *)
}

type state = line array

(* Every transition label, built once per model (successor lists point
   into these); prefixed ["L<l>:"] when [lines > 1]. *)
type node_labels = {
  load_hit : string;
  load_miss : string;
  store_hit : string;
  store_silent_upgrade : string;
  store_upgrade : string;
  store_miss : string;
  evict : string;
  evict_writeback : string;
}

let node_labels ~prefix node =
  let l kind = prefix ^ "n" ^ string_of_int node ^ ":" ^ kind in
  {
    load_hit = l "load-hit";
    load_miss = l "load-miss";
    store_hit = l "store-hit";
    store_silent_upgrade = l "store-silent-upgrade";
    store_upgrade = l "store-upgrade";
    store_miss = l "store-miss";
    evict = l "evict";
    evict_writeback = l "evict-writeback";
  }

(* decimal digits, the bytes of [Printf.sprintf "%d"] *)
let rec add_int b v =
  if v < 0 then Buffer.add_string b (string_of_int v)
  else begin
    if v >= 10 then add_int b (v / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))
  end

(* a per-line invariant of the rules, over every line of a state *)
let every_line holds = Array.for_all (fun line -> holds line.copies line.values line.mem)

let make ?(por = true) params =
  if params.nodes < 2 || params.nodes > 5 then
    invalid_arg "Snoop_model.make: nodes must be in 2..5";
  if params.lines < 1 then invalid_arg "Snoop_model.make: lines must be positive";
  if params.variant = Types.Adaptive then
    invalid_arg "Snoop_model.make: variant must be Msi or Mesi";
  let n = params.nodes in
  let module Model = struct
    type nonrec state = state

    let initial_line =
      {
        copies = Array.make n Rules.I;
        values = Array.make n 0;
        mem = 0;
        vers = 0;
        remaining = Array.make n params.max_ops_per_node;
        seen = Array.make n 0;
      }

    let initial = [ Array.make params.lines initial_line ]

    (* the next line, in which [node] has observed [v] and spent one
       operation *)
    let observe line node v ~copies ~values ~mem ~vers =
      let seen = Array.copy line.seen in
      seen.(node) <- max seen.(node) v;
      let remaining = Array.copy line.remaining in
      remaining.(node) <- remaining.(node) - 1;
      { copies; values; mem; vers; remaining; seen }

    (* [node] completes an access holding [copy] with [value] *)
    let complete line node ~copies ~mem ~vers copy value =
      copies.(node) <- copy;
      let values = Array.copy line.values in
      values.(node) <- value;
      observe line node value ~copies ~values ~mem ~vers

    (* [node]'s miss as one atomic bus transaction: every other cache
       reacts to [cmd] by the rules, then the requester fills.  A supplied
       copy's data also lands in home memory: on [Rd] the write-back the
       rules require; on [Rdx] a word the requester overwrites at once,
       written anyway so states differing only in a stale memory word
       collapse (MSI at 4 nodes: 56,481 states, 92,901 without it). *)
    let bus line node (kind : Types.op_kind) cmd =
      let copies = Array.copy line.copies in
      let mem = ref line.mem and others = ref false in
      for i = 0 to n - 1 do
        if i <> node then begin
          let c = copies.(i) in
          if c <> Rules.I then others := true;
          (match Rules.supply cmd c with
          | Keep -> ()
          | Flush | Flush_home -> mem := line.values.(i));
          copies.(i) <- Rules.snoop params.bug cmd c
        end
      done;
      let fill = Rules.fill params.variant kind ~others:!others in
      match kind with
      | Load -> complete line node ~copies ~mem:!mem ~vers:line.vers fill !mem
      | Store -> complete line node ~copies ~mem:!mem ~vers:(line.vers + 1) fill (line.vers + 1)

    (* a store hit: M, or MESI's silent E->M *)
    let store_hit line node =
      complete line node ~copies:(Array.copy line.copies) ~mem:line.mem
        ~vers:(line.vers + 1) (Rules.fill params.variant Store ~others:false) (line.vers + 1)

    let labels =
      Array.init params.lines (fun l ->
          let prefix = if params.lines = 1 then "" else "L" ^ string_of_int l ^ ":" in
          Array.init n (node_labels ~prefix))

    (* Every enabled transition of line [l], labeled. *)
    let line_successors l line =
      let out = ref [] in
      let add label line' = out := (label, line') :: !out in
      for node = 0 to n - 1 do
        let names = labels.(l).(node) in
        let copy = line.copies.(node) in
        (if line.remaining.(node) > 0 then begin
           (match Rules.access Load copy with
           | Hit ->
               add names.load_hit
                 (observe line node line.values.(node) ~copies:line.copies
                    ~values:line.values ~mem:line.mem ~vers:line.vers)
           | Miss | Silent_upgrade (* loads never upgrade *) ->
               add names.load_miss (bus line node Load (Rules.command Load copy)));
           match Rules.access Store copy with
           | Hit -> add names.store_hit (store_hit line node)
           | Silent_upgrade -> add names.store_silent_upgrade (store_hit line node)
           | Miss ->
               let cmd = Rules.command Store copy in
               add
                 (match cmd with Upgr -> names.store_upgrade | Rd | Rdx -> names.store_miss)
                 (bus line node Store cmd)
         end);
        (* spontaneous evictions keep capacity pressure in the model *)
        if copy <> Rules.I then begin
          let copies = Array.copy line.copies in
          copies.(node) <- Rules.I;
          match Rules.evict copy with
          | Drop -> add names.evict { line with copies }
          | Writeback ->
              add names.evict_writeback { line with copies; mem = line.values.(node) }
        end
      done;
      List.rev !out

    let groups state =
      List.init params.lines (fun l ->
          List.map
            (fun (label, line') ->
              let state' = Array.copy state in
              state'.(l) <- line';
              (label, state'))
            (line_successors l state.(l)))

    let successors state = List.concat (groups state)

    let por = if por && params.lines > 1 then Some groups else None

    (* the model's own invariants, over its version counters: the newest
       version lives in the E/M copy when one exists, in home memory
       otherwise, and nobody has seen a version not yet handed out *)
    let latest_materialized line =
      let latest = ref line.mem in
      Array.iteri (fun i -> function Rules.E | M -> latest := line.values.(i) | I | S -> ()) line.copies;
      !latest = line.vers

    let observations_monotone line = Array.for_all (fun s -> s <= line.vers) line.seen

    let invariants =
      List.map (fun (name, holds) -> (name, every_line holds)) (Rules.invariants params.variant)
      @ [
          ("latest-materialized", Array.for_all latest_materialized);
          ("observations-monotone", Array.for_all observations_monotone);
        ]

    let is_quiescent state =
      Array.for_all (fun line -> Array.for_all (fun r -> r = 0) line.remaining) state

    let encode state =
      let b = Buffer.create (Array.length state * ((8 * n) + 16)) in
      let ints a =
        for i = 0 to Array.length a - 1 do
          add_int b a.(i);
          Buffer.add_char b ','
        done
      in
      for l = 0 to Array.length state - 1 do
        let line = state.(l) in
        for i = 0 to n - 1 do
          let c = line.copies.(i) in
          Buffer.add_char b (Char.lowercase_ascii (Rules.to_string c).[0]);
          if c <> Rules.I then add_int b line.values.(i);
          Buffer.add_char b ';'
        done;
        Buffer.add_char b '|';
        add_int b line.mem;
        Buffer.add_char b '|';
        add_int b line.vers;
        Buffer.add_char b '|';
        ints line.remaining;
        Buffer.add_char b '|';
        ints line.seen;
        Buffer.add_char b '/'
      done;
      Buffer.contents b

    let pp ppf state =
      Array.iteri
        (fun l line ->
          Format.fprintf ppf "@[<h>L%d: mem=%d vers=%d copies=[" l line.mem line.vers;
          Array.iteri
            (fun i c ->
              if i > 0 then Format.pp_print_string ppf " ";
              match c with
              | Rules.I -> Format.fprintf ppf "n%d:I" i
              | S | E | M -> Format.fprintf ppf "n%d:%s%d" i (Rules.to_string c) line.values.(i))
            line.copies;
          Format.fprintf ppf "] remaining=[";
          Array.iteri
            (fun i r ->
              if i > 0 then Format.pp_print_string ppf " ";
              Format.pp_print_int ppf r)
            line.remaining;
          Format.fprintf ppf "]@]@ ")
        state
  end in
  (module Model : Checker.MODEL)
