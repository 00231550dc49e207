open Pcc_core

type store_rec = { s_node : int; s_value : int; s_time : int }

type load_rec = { l_node : int; l_value : int; l_time : int }

type line_hist = {
  mutable stores : store_rec list;  (* newest first *)
  mutable nstores : int;
  mutable loads : load_rec list;
}

type t = (Types.line, line_hist) Hashtbl.t

let create () : t = Hashtbl.create 256

let hist t line =
  match Hashtbl.find_opt t line with
  | Some h -> h
  | None ->
      let h = { stores = []; nstores = 0; loads = [] } in
      Hashtbl.add t line h;
      h

let record_store t ~node ~line ~value ~time =
  let h = hist t line in
  h.stores <- { s_node = node; s_value = value; s_time = time } :: h.stores;
  h.nstores <- h.nstores + 1

let record_load t ~node ~line ~value ~time =
  let h = hist t line in
  h.loads <- { l_node = node; l_value = value; l_time = time } :: h.loads

let attach sys =
  let t = create () in
  System.on_commit sys (fun (c : Probe.commit_event) ->
      match c.c_kind with
      | Types.Store -> record_store t ~node:c.c_node ~line:c.c_line ~value:c.c_value ~time:c.c_time
      | Types.Load -> record_load t ~node:c.c_node ~line:c.c_line ~value:c.c_value ~time:c.c_time);
  t

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

type op =
  | O_store of { node : int; value : int; time : int }
  | O_load of { node : int; value : int; time : int }

let linearize t =
  Hashtbl.fold
    (fun line h acc ->
      let stores = List.rev h.stores in
      let by_value = Hashtbl.create 16 in
      List.iter
        (fun l ->
          Hashtbl.replace by_value l.l_value
            (l :: Option.value (Hashtbl.find_opt by_value l.l_value) ~default:[]))
        h.loads;
      let loads_of value =
        Option.value (Hashtbl.find_opt by_value value) ~default:[]
        |> List.sort (fun a b -> compare (a.l_time, a.l_node) (b.l_time, b.l_node))
        |> List.map (fun l -> O_load { node = l.l_node; value = l.l_value; time = l.l_time })
      in
      let ops =
        loads_of 0
        @ List.concat_map
            (fun s ->
              O_store { node = s.s_node; value = s.s_value; time = s.s_time }
              :: loads_of s.s_value)
            stores
      in
      (line, ops) :: acc)
    t []

let store_count t line =
  match Hashtbl.find_opt t line with Some h -> h.nstores | None -> 0

let last_store t line =
  match Hashtbl.find_opt t line with
  | Some { stores = { s_value; _ } :: _; _ } -> s_value
  | _ -> 0
