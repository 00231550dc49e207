open Pcc_core

type bug = Upgr_skips_invals

type params = {
  nodes : int;
  lines : int;
  variant : Types.protocol;
  max_ops_per_node : int;
  bug : bug option;
}

let default_params =
  { nodes = 3; lines = 1; variant = Types.Msi; max_ops_per_node = 2; bug = None }

(* One cache's view of one line.  Values are store versions from a
   per-line counter, so "the newest value" is a comparison. *)
type copy = I | S of int | E of int | M of int

type line = {
  copies : copy array;  (** per node *)
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

let make ?(por = true) params =
  if params.nodes < 2 || params.nodes > 5 then
    invalid_arg "Snoop_model.make: nodes must be in 2..5";
  if params.lines < 1 then invalid_arg "Snoop_model.make: lines must be positive";
  if params.variant = Types.Adaptive then
    invalid_arg "Snoop_model.make: variant must be Msi or Mesi";
  let n = params.nodes in
  let mesi = params.variant = Types.Mesi in
  let skip_invals = params.bug = Some Upgr_skips_invals in
  let module Model = struct
    type nonrec state = state

    let initial_line =
      {
        copies = Array.make n I;
        mem = 0;
        vers = 0;
        remaining = Array.make n params.max_ops_per_node;
        seen = Array.make n 0;
      }

    let initial = [ Array.make params.lines initial_line ]

    let set_copy line node copy =
      let copies = Array.copy line.copies in
      copies.(node) <- copy;
      { line with copies }

    let observe line node v =
      let seen = Array.copy line.seen in
      seen.(node) <- max seen.(node) v;
      let remaining = Array.copy line.remaining in
      remaining.(node) <- remaining.(node) - 1;
      { line with seen; remaining }

    (* The bus-wide effect of a read miss: the M/E owner (if any)
       downgrades to S and flushes dirty data home. *)
    let snoop_read line =
      let mem = ref line.mem in
      let copies =
        Array.map
          (function
            | M v ->
                mem := v;
                S v
            | E v -> S v
            | c -> c)
          line.copies
      in
      { line with copies; mem = !mem }

    (* The bus-wide effect of a write miss: every copy dies; dirty data
       reaches home first (the value is about to be overwritten, but the
       flush is what keeps "latest value materialized" an invariant at
       every intermediate state). *)
    let snoop_write line =
      let mem = ref line.mem in
      let copies =
        Array.map
          (function
            | M v ->
                mem := v;
                I
            | E _ | S _ -> I
            | I -> I)
          line.copies
      in
      { line with copies; mem = !mem }

    let alone line node =
      let free = ref true in
      Array.iteri (fun i c -> if i <> node && c <> I then free := false) line.copies;
      !free

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
        (if line.remaining.(node) > 0 then begin
           (* load *)
           (match line.copies.(node) with
           | S v | E v | M v -> add names.load_hit (observe line node v)
           | I ->
               let line' = snoop_read line in
               let v = line'.mem in
               let fills = if mesi && alone line' node then E v else S v in
               add names.load_miss (observe (set_copy line' node fills) node v));
           (* store *)
           let commit line' =
             let v = line'.vers + 1 in
             observe (set_copy { line' with vers = v } node (M v)) node v
           in
           match line.copies.(node) with
           | M _ -> add names.store_hit (commit line)
           | E _ -> add names.store_silent_upgrade (commit line)
           | S _ ->
               let line' =
                 if skip_invals then line
                 else
                   {
                     line with
                     copies =
                       Array.mapi
                         (fun i c -> if i = node then c else match c with S _ -> I | c -> c)
                         line.copies;
                   }
               in
               add names.store_upgrade (commit line')
           | I -> add names.store_miss (commit (snoop_write line))
         end);
        (* spontaneous evictions keep capacity pressure in the model *)
        match line.copies.(node) with
        | I -> ()
        | S _ | E _ -> add names.evict (set_copy line node I)
        | M v ->
            add names.evict_writeback
              (set_copy { line with mem = v } node I)
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

    let line_invariants =
      [
        ( "single-writer",
          fun line ->
            let owners = ref 0 and others = ref 0 in
            Array.iter
              (function
                | M _ | E _ -> incr owners
                | S _ -> incr others
                | I -> ())
              line.copies;
            !owners <= 1 && (!owners = 0 || !others = 0) );
        ( "latest-materialized",
          fun line ->
            let owner = ref None in
            Array.iter
              (function M v | E v -> owner := Some v | S _ | I -> ())
              line.copies;
            match !owner with Some v -> v = line.vers | None -> line.mem = line.vers );
        ( "shared-matches-memory",
          fun line ->
            Array.for_all (function S v -> v = line.mem | _ -> true) line.copies );
        ( "msi-has-no-exclusive-clean",
          fun line -> mesi || Array.for_all (function E _ -> false | _ -> true) line.copies
        );
        ( "observations-monotone",
          fun line -> Array.for_all (fun s -> s <= line.vers) line.seen );
      ]

    let invariants =
      List.map (fun (name, check) -> (name, Array.for_all check)) line_invariants

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
          (match line.copies.(i) with
          | I -> Buffer.add_char b 'i'
          | S v ->
              Buffer.add_char b 's';
              add_int b v
          | E v ->
              Buffer.add_char b 'e';
              add_int b v
          | M v ->
              Buffer.add_char b 'm';
              add_int b v);
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
              | I -> Format.fprintf ppf "n%d:I" i
              | S v -> Format.fprintf ppf "n%d:S%d" i v
              | E v -> Format.fprintf ppf "n%d:E%d" i v
              | M v -> Format.fprintf ppf "n%d:M%d" i v)
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
