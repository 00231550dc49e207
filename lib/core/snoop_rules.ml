type copy = I | S | E | M

type cmd = Rd | Rdx | Upgr

type access = Hit | Silent_upgrade | Miss

let access (kind : Types.op_kind) copy =
  match (kind, copy) with
  | Load, (S | E | M) | Store, M -> Hit
  | Store, E -> Silent_upgrade
  | Load, I | Store, (I | S) -> Miss

let command (kind : Types.op_kind) copy =
  match (kind, copy) with Load, _ -> Rd | Store, S -> Upgr | Store, (I | E | M) -> Rdx

let snoop fault cmd copy =
  match (cmd, copy, fault) with
  | Rd, (E | M), _ -> S
  | Rdx, _, _ -> I
  | Upgr, S, Some Config.Snoop_upgr_skips_invals -> S (* planted bug: a stale S survives *)
  | Upgr, S, (Some Config.Stale_update_no_resharing | None) -> I
  | Rd, (I | S), _ | Upgr, (I | E | M), _ -> copy

type supply = Keep | Flush | Flush_home

let supply cmd copy =
  match (cmd, copy) with
  | Rd, M -> Flush_home
  | (Rd | Rdx), E | Rdx, M -> Flush
  | (Rd | Rdx), (I | S) | Upgr, _ -> Keep

let fill (variant : Types.protocol) (kind : Types.op_kind) ~others =
  match (kind, variant) with
  | Load, Mesi when not others -> E
  | Load, (Msi | Mesi | Adaptive) -> S
  | Store, _ -> M

type eviction = Drop | Writeback

let evict = function M -> Writeback | I | S | E -> Drop

let owner = function E | M -> true | I | S -> false

let invariants (variant : Types.protocol) =
  [
    ( "single-writer",
      fun copies _ _ ->
        (not (Array.exists owner copies))
        || Array.fold_left (fun held c -> if c = I then held else held + 1) 0 copies = 1 );
    ( "shared-matches-memory",
      fun copies (values : int array) mem ->
        Array.for_all2 (fun c v -> c <> S || v = mem) copies values );
    ( "msi-has-no-exclusive-clean",
      fun copies _ _ -> variant <> Msi || Array.for_all (fun c -> c <> E) copies );
  ]

let to_string = function I -> "I" | S -> "S" | E -> "E" | M -> "M"
