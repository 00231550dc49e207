(* A fixed unit of host work that does not depend on the repository's
   code: dependent random reads over a 1 MB int array, hashtable
   updates and short-lived allocation.  Timed right before and after
   each measured run, it tells how fast the host was running at that
   moment, so end-to-end timings can be normalized for the host's speed
   drift (on a shared 2-core VM it drifts by up to 2x over minutes).

   The working set is sized so the chunk slows down as much as the
   simulator does: across 50-run samples per cell, log run time against
   log chunk time had slope 0.9-1.0 and correlation 0.92-0.97 (with an
   8 MB set the chunk overreacted, slope 0.6), and normalizing cut the
   per-run spread from 30-60% to 5-15%. *)

let words = 1 lsl 17

let table = lazy (Array.init words (fun i -> i * 2654435761 land (words - 1)))

(* Iterations per chunk; the test suite shrinks it. *)
let iterations = ref 400_000

let chunk () =
  let a = Lazy.force table in
  let h = Hashtbl.create 1024 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to !iterations do
    x := a.(!x) lxor (!acc land (words - 1));
    let k = !x land 4095 in
    (match Hashtbl.find_opt h k with
    | Some l -> Hashtbl.replace h k (if List.length l > 3 then [ !x ] else !x :: l)
    | None -> Hashtbl.add h k [ !x ]);
    acc := !acc + !x
  done;
  !acc

(* CPU seconds one chunk takes. *)
let time () =
  let c0 = Hostclock.cpu_s () in
  ignore (Sys.opaque_identity (chunk ()));
  Hostclock.cpu_s () -. c0

(* The chunk's typical time on the 2-core x86 host the benchmark was
   tuned on: normalized timings read as if the host ran at that speed. *)
let nominal_s = 0.02

(* A meter keeps the last chunk time, so consecutive measurements share
   the chunk between them. *)
type meter = { mutable last : float }

let meter () = { last = time () }

(* Run [f]; also return the host-speed factor for its time: the nominal
   chunk time over the mean of the chunks just before and after.
   Multiplying a raw time by it gives the normalized time. *)
let around m f =
  let r = f () in
  let after = time () in
  let factor = nominal_s /. ((m.last +. after) /. 2.0) in
  m.last <- after;
  (r, factor)
