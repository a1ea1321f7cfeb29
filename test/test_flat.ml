(* Host cost per event must not grow with run length.

   A structure sized by history (a pool copied on every pick, timers
   kept until their deadline) makes a long run allocate more per event
   than a short one. Minor words per dispatched event are a
   deterministic function of the run, unlike CPU time, so this check is
   exact from run to run: 1PC on 8 servers at 5k and at 20k
   transactions must allocate within 5 % of each other per event. *)

open Opc

let words_per_event ~txns =
  let w0 = Gc.minor_words () in
  let p =
    Experiment.run_scale_point ~servers:8 ~txns ~seed:1 Acp.Protocol.Opc
  in
  (Gc.minor_words () -. w0) /. float_of_int p.Experiment.events

let test_words_per_event_flat () =
  let short = words_per_event ~txns:5_000 in
  let long = words_per_event ~txns:20_000 in
  Printf.printf "minor words/event: %.1f at 5k txns, %.1f at 20k txns\n"
    short long;
  if long > short *. 1.05 || long < short *. 0.95 then
    Alcotest.failf
      "minor words per event moved from %.1f (5k txns) to %.1f (20k txns), \
       more than 5 %%"
      short long

let () =
  Alcotest.run "flat"
    [
      ( "run length",
        [
          Alcotest.test_case "1PC words per event, 5k vs 20k txns" `Quick
            test_words_per_event_flat;
        ] );
    ]
