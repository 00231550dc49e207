module type MODEL = sig
  type state

  val initial : state list

  val successors : state -> (string * state) list

  val por : (state -> (string * state) list list) option

  val invariants : (string * (state -> bool)) list

  val is_quiescent : state -> bool

  val encode : state -> string

  val pp : Format.formatter -> state -> unit
end

type stats = {
  states_explored : int;
  transitions : int;
  max_depth : int;
  complete : bool;
}

type 'state outcome =
  | Ok of stats
  | Invariant_violation of {
      invariant : string;
      state : 'state;
      trace : string list;
      stats : stats;
    }
  | Deadlock of { state : 'state; trace : string list; stats : stats }

let digest_bytes = 16 (* Digest.t = MD5 = 16 bytes *)

(* ------------------------------------------------------------------ *)
(* Visited set: in-memory hash table or a disk-resident sorted run     *)
(* ------------------------------------------------------------------ *)

(* The spilled representation is a single file of sorted 16-byte digests
   ("chunked hash file": each level contributes one sorted chunk, merged
   into the run so membership stays a single sequential scan).  Both
   operations — batch membership and batch insert — stream the run once
   per level, so resident memory is bounded by the frontier, never by
   the visited set. *)
module Visited = struct
  type t =
    | Mem of (string, unit) Hashtbl.t
    | Disk of { dir : string; mutable run : string; mutable generation : int }

  let in_memory () = Mem (Hashtbl.create 65536)

  let on_disk ~dir =
    let run = Filename.concat dir "visited-0.run" in
    Out_channel.with_open_bin run (fun _ -> ());
    Disk { dir; run; generation = 0 }

  let read_digest ic = In_channel.really_input_string ic digest_bytes

  (* The members of [sorted] (strictly increasing) already in the run,
     found in one sequential scan. *)
  let known_on_disk run sorted =
    let hits = Hashtbl.create 1024 in
    In_channel.with_open_bin run (fun ic ->
        let rec walk current = function
          | [] -> ()
          | q :: rest as queries -> (
              match current with
              | None -> ()
              | Some existing ->
                  let c = String.compare existing q in
                  if c < 0 then walk (read_digest ic) queries
                  else if c = 0 then begin
                    Hashtbl.replace hits q ();
                    walk (read_digest ic) rest
                  end
                  else walk current rest)
        in
        walk (read_digest ic) sorted);
    hits

  (* One level's deduplication: [fresh d] is true the first time the
     level offers a digest the set does not hold yet.  The in-memory set
     answers one digest at a time and records it as it answers; the
     spilled set scans its run once for the level's [candidates] (forced
     only here: sorted, deduplicated), and [add] merges the fresh digests
     into the run afterwards. *)
  let level t candidates =
    match t with
    | Mem h ->
        fun d ->
          (not (Hashtbl.mem h d))
          && begin
            Hashtbl.add h d ();
            true
          end
    | Disk d ->
        let known = known_on_disk d.run (candidates ()) in
        let added = Hashtbl.create 4096 in
        fun d ->
          (not (Hashtbl.mem known d || Hashtbl.mem added d))
          && begin
            Hashtbl.replace added d ();
            true
          end

  (* [sorted ()]: the digests [level] found fresh, strictly increasing.
     The in-memory set already holds them. *)
  let add t sorted =
    match t with
    | Mem _ -> ()
    | Disk d ->
        let next_gen = d.generation + 1 in
        let next = Filename.concat d.dir (Printf.sprintf "visited-%d.run" next_gen) in
        In_channel.with_open_bin d.run (fun ic ->
            Out_channel.with_open_bin next (fun oc ->
                let rec merge current queries =
                  match (current, queries) with
                  | None, [] -> ()
                  | None, q :: rest ->
                      Out_channel.output_string oc q;
                      merge None rest
                  | Some existing, [] ->
                      Out_channel.output_string oc existing;
                      merge (read_digest ic) []
                  | Some existing, q :: rest ->
                      if String.compare existing q < 0 then begin
                        Out_channel.output_string oc existing;
                        merge (read_digest ic) queries
                      end
                      else begin
                        Out_channel.output_string oc q;
                        merge current rest
                      end
                in
                merge (read_digest ic) (sorted ())));
        Sys.remove d.run;
        d.run <- next;
        d.generation <- next_gen

  let close = function
    | Mem _ -> ()
    | Disk d -> if Sys.file_exists d.run then Sys.remove d.run
end

(* ------------------------------------------------------------------ *)
(* Predecessor edges for counterexample reconstruction                 *)
(* ------------------------------------------------------------------ *)

(* In-memory: child digest -> (parent digest, label).  Spilled: an
   append-only log of fixed-framed records; reconstruction scans the log
   once per trace step, which is fine because counterexamples are
   shallow (BFS depth) and rare (one per run). *)
module Parents = struct
  type t =
    | Mem of (string, string * string) Hashtbl.t
    | Disk of { path : string; oc : Out_channel.t }

  let in_memory () = Mem (Hashtbl.create 65536)

  let on_disk ~path = Disk { path; oc = Out_channel.open_bin path }

  let add t ~child ~parent ~label =
    match t with
    | Mem h -> if not (Hashtbl.mem h child) then Hashtbl.add h child (parent, label)
    | Disk { oc; _ } ->
        Out_channel.output_string oc child;
        Out_channel.output_string oc parent;
        let len = String.length label in
        Out_channel.output_char oc (Char.chr (len land 0xff));
        Out_channel.output_char oc (Char.chr ((len lsr 8) land 0xff));
        Out_channel.output_string oc label

  let find t child =
    match t with
    | Mem h -> Hashtbl.find_opt h child
    | Disk { path; oc } ->
        Out_channel.flush oc;
        In_channel.with_open_bin path (fun ic ->
            let rec scan acc =
              match In_channel.really_input_string ic digest_bytes with
              | None -> acc
              | Some c -> (
                  match In_channel.really_input_string ic digest_bytes with
                  | None -> acc
                  | Some p -> (
                      let b0 = In_channel.input_char ic in
                      let b1 = In_channel.input_char ic in
                      match (b0, b1) with
                      | Some b0, Some b1 -> (
                          let len = Char.code b0 lor (Char.code b1 lsl 8) in
                          match In_channel.really_input_string ic len with
                          | None -> acc
                          | Some label ->
                              (* first writer wins, matching the in-memory
                                 Hashtbl.add-if-absent semantics *)
                              let acc =
                                if acc = None && String.equal c child then
                                  Some (p, label)
                                else acc
                              in
                              scan acc)
                      | _ -> acc))
            in
            scan None)

  let close = function
    | Mem _ -> ()
    | Disk { path; oc } ->
        Out_channel.close oc;
        if Sys.file_exists path then Sys.remove path
end

(* ------------------------------------------------------------------ *)
(* Level-synchronous exploration                                       *)
(* ------------------------------------------------------------------ *)

(* Per-state expansion result, computed in parallel without touching any
   shared structure; the sequential merge below is the only code that
   mutates the visited set, parent edges, and counters, and it runs in
   canonical-hash order — that is what makes jobs=1 and jobs=N
   byte-identical. *)
type 'state expansion = {
  x_violated : string option;
  x_deadlock : bool;
  x_groups : (string * 'state * string) list list;
}

let split_chunks n jobs =
  (* contiguous [lo, hi) slices, at most [jobs] of them *)
  let chunks = max 1 (min jobs n) in
  List.init chunks (fun i ->
      let lo = n * i / chunks and hi = n * (i + 1) / chunks in
      (lo, hi))

let run (type s) (module M : MODEL with type state = s) ?(max_states = 2_000_000)
    ?(jobs = 1) ?spill () : s outcome =
  let digest st = Digest.string (M.encode st) in
  let visited, parents =
    match spill with
    | None -> (Visited.in_memory (), Parents.in_memory ())
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        ( Visited.on_disk ~dir,
          Parents.on_disk ~path:(Filename.concat dir "parents.log") )
  in
  Fun.protect ~finally:(fun () ->
      Visited.close visited;
      Parents.close parents)
  @@ fun () ->
  let trace_to key =
    let rec walk key acc =
      match Parents.find parents key with
      | None -> acc
      | Some (parent, label) -> walk parent (label :: acc)
    in
    walk key []
  in
  let explored = ref 0 in
  let transitions = ref 0 in
  let depth = ref 0 in
  let stats complete =
    {
      states_explored = !explored;
      transitions = !transitions;
      max_depth = !depth;
      complete;
    }
  in
  (* deduplicated initial frontier, in canonical-hash order *)
  let initial =
    let keyed = List.map (fun st -> (digest st, st)) M.initial in
    let fresh =
      Visited.level visited (fun () -> List.sort_uniq String.compare (List.map fst keyed))
    in
    List.filter (fun (d, _) -> fresh d) keyed
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Visited.add visited (fun () -> List.map fst initial);
  let expand frontier =
    let per_state (_, st) =
      let x_violated =
        Option.map fst (List.find_opt (fun (_, p) -> not (p st)) M.invariants)
      in
      let groups = match M.por with Some f -> f st | None -> [ M.successors st ] in
      let x_groups =
        List.map (List.map (fun (lbl, st') -> (lbl, st', digest st'))) groups
      in
      let x_deadlock =
        List.for_all (function [] -> true | _ :: _ -> false) x_groups
        && not (M.is_quiescent st)
      in
      { x_violated; x_deadlock; x_groups }
    in
    let n = Array.length frontier in
    let out = Array.make n None in
    Pcc_parallel.Pool.run_keyed ~jobs
      (List.map
         (fun (lo, hi) ->
           ( Printf.sprintf "expand[%d,%d)" lo hi,
             fun () -> (lo, Array.init (hi - lo) (fun k -> per_state frontier.(lo + k))) ))
         (split_chunks n jobs))
    |> List.iter (fun (lo, slice) ->
           Array.iteri (fun k x -> out.(lo + k) <- Some x) slice);
    Array.map Option.get out
  in
  let rec level frontier =
    if Array.length frontier = 0 then Ok (stats true)
    else if !explored >= max_states then Ok (stats false)
    else begin
      depth := !depth + (if !explored = 0 then 0 else 1);
      explored := !explored + Array.length frontier;
      let expansions = expand frontier in
      (* verdict scan, canonical order: the minimal counterexample *)
      let verdict = ref None in
      Array.iteri
        (fun i x ->
          if !verdict = None then
            match x.x_violated with
            | Some invariant ->
                let key, state = frontier.(i) in
                verdict :=
                  Some
                    (Invariant_violation
                       { invariant; state; trace = trace_to key; stats = stats false })
            | None ->
                if x.x_deadlock then
                  let key, state = frontier.(i) in
                  verdict :=
                    Some (Deadlock { state; trace = trace_to key; stats = stats false }))
        expansions;
      match !verdict with
      | Some outcome -> outcome
      | None ->
          let fresh =
            Visited.level visited (fun () ->
                Array.to_list expansions
                |> List.concat_map (fun x ->
                       List.concat_map (List.map (fun (_, _, d) -> d)) x.x_groups)
                |> List.sort_uniq String.compare)
          in
          let next = ref [] in
          Array.iteri
            (fun i x ->
              let key, _ = frontier.(i) in
              let chosen =
                match x.x_groups with
                | ([] | [ _ ]) as gs -> List.concat gs
                | gs -> (
                    (* ample set: the first non-empty independence class.
                       Later classes run only once every earlier class is
                       exhausted — strict component priority; see the .mli
                       contract and DESIGN.md for why this preserves
                       per-class invariants and deadlocks *)
                    match
                      List.find_opt (function [] -> false | _ :: _ -> true) gs
                    with
                    | Some g -> g
                    | None -> [])
              in
              List.iter
                (fun (label, st', d) ->
                  incr transitions;
                  if fresh d then begin
                    Parents.add parents ~child:d ~parent:key ~label;
                    next := (d, st') :: !next
                  end)
                chosen)
            expansions;
          let next = Array.of_list !next in
          Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) next;
          Visited.add visited (fun () -> List.map fst (Array.to_list next));
          level next
    end
  in
  level (Array.of_list initial)

let pp_outcome pp_state ppf = function
  | Ok stats when stats.complete ->
      Format.fprintf ppf "OK: %d states, %d transitions, depth %d (exhaustive)"
        stats.states_explored stats.transitions stats.max_depth
  | Ok stats ->
      (* no violation within the bound is not a verdict *)
      Format.fprintf ppf
        "INCOMPLETE: %d states, %d transitions, depth %d (--max-states bound reached)"
        stats.states_explored stats.transitions stats.max_depth
  | Invariant_violation { invariant; state; trace; stats } ->
      Format.fprintf ppf
        "@[<v>INVARIANT '%s' VIOLATED after %d states@,trace (%d steps):@,  %a@,state: %a@]"
        invariant stats.states_explored (List.length trace)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,  ")
           Format.pp_print_string)
        trace pp_state state
  | Deadlock { state; trace; stats } ->
      Format.fprintf ppf
        "@[<v>DEADLOCK after %d states@,trace (%d steps):@,  %a@,state: %a@]"
        stats.states_explored (List.length trace)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,  ")
           Format.pp_print_string)
        trace pp_state state
