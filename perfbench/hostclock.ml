(* Host clocks.

   [ns] is the monotonic clock (clock_gettime CLOCK_MONOTONIC via
   bechamel's allocation-free stub) used for the traced run's
   self-time attribution and the isolated primitives.

   End-to-end timings use process CPU time ([cpu_s]), which leaves out
   time the process spends descheduled.  On the 2-core VM the benchmark
   was tuned on, CPU and wall time repeated equally tightly (the
   process is rarely descheduled there); wall time is measured beside
   it and printed in the summary so the choice can be re-checked. *)

let ns () = Int64.to_int (Monotonic_clock.now ())

let cpu_s () = Sys.time ()

let wall_s () = Unix.gettimeofday ()

(* [f ()] and the CPU seconds it took. *)
let time f =
  let c0 = cpu_s () in
  let r = f () in
  (r, cpu_s () -. c0)
