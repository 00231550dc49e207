(* Golden-statistics regression: the classified miss counts, delegation
   activity, and update traffic of every benchmark are pinned for one
   fixed machine size and seed, under both the baseline and the fully
   adaptive configuration.  Any protocol change that shifts these numbers
   is visible here first.

   The table is generated, not hand-written.  After an intentional
   protocol change, regenerate it with

     dune exec bin/pcc_oracle.exe -- --golden

   and paste the output below (nodes=8, scale=0.15, seed=7 — pinned by
   the tool, independent of PCC_TEST_SEED). *)

module Oracle = Pcc_oracle

(* (bench, config, (local_misses, rac_hits, 2hop, 3hop, delegations, updates_sent)) *)
let golden =
  [
    ("barnes", "base", (870, 0, 4400, 1563, 0, 0));
    ("ocean", "base", (743, 0, 704, 0, 0, 0));
    ("em3d", "base", (167, 0, 1052, 170, 0, 0));
    ("lu", "base", (339, 0, 880, 0, 0, 0));
    ("cg", "base", (1443, 0, 778, 278, 0, 0));
    ("mg", "base", (470, 0, 3204, 509, 0, 0));
    ("appbt", "base", (401, 0, 2242, 342, 0, 0));
    ("barnes", "full", (875, 0, 4390, 1568, 0, 0));
    ("ocean", "full", (743, 192, 512, 0, 64, 192));
    ("em3d", "full", (167, 363, 766, 93, 96, 363));
    ("lu", "full", (339, 240, 640, 0, 80, 240));
    ("cg", "full", (1431, 224, 584, 260, 16, 224));
    ("mg", "full", (465, 0, 3214, 504, 0, 0));
    ("appbt", "full", (401, 0, 2242, 342, 0, 0));
  ]

let run_one bench config_name =
  let desc =
    { Oracle.Trace.bench; config_name; nodes = 8; scale = 0.15; seed = 7;
      fault = false; net = None }
  in
  let config = Oracle.Trace.config_of_desc desc in
  let programs = Oracle.Trace.programs_of_desc desc in
  let result = Pcc_core.System.run ~config ~programs () in
  let s = result.Pcc_core.System.stats in
  Pcc_core.Run_stats.
    (s.local_mem_misses, s.rac_hits, s.remote_2hop, s.remote_3hop, s.delegations,
     s.updates_sent)

let check_one (bench, config_name, expected) () =
  let actual = run_one bench config_name in
  let pp (a, b, c, d, e, f) = Printf.sprintf "(%d, %d, %d, %d, %d, %d)" a b c d e f in
  if actual <> expected then
    Alcotest.failf
      "%s/%s drifted: pinned %s, got %s — if intentional, regenerate with `dune exec \
       bin/pcc_oracle.exe -- --golden`"
      bench config_name (pp expected) (pp actual)

let suite =
  List.map
    (fun ((bench, config_name, _) as row) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s pinned" bench config_name)
        `Slow (check_one row))
    golden
