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

(* A crash loses the cache, and should cost what the cache changed: a
   store of 20 000 files with the same in-flight updates must reset
   with the same allocation as one of 1 000. Both are built as a server
   builds them, one committed CREATE at a time, so the store's record
   of touched keys is wherever its compaction left it: up to 64 stale
   keys, at most 16 words each to restore, which the slack covers.

   Allocated words are deterministic, like the words per event above.
   They are [Gc.minor_words], which is exact, plus what went straight
   to the major heap. [Gc.allocated_bytes] is not used: on OCaml 5.1
   its minor part comes from a counter that undercounts. *)

let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let crash_words ~files =
  let open Mds in
  let s = Store.create ~name:"s" ~root:(Some 0) in
  let create ino =
    let updates =
      [
        Update.Create_inode { ino; kind = Update.File; nlink = 1 };
        Update.Link { dir = 0; name = Printf.sprintf "f%d" ino; target = ino };
      ]
    in
    List.iter
      (fun u -> ignore (Result.get_ok (Store.apply_volatile s u)))
      updates;
    updates
  in
  for ino = 1 to files do
    Store.commit_durable s (create ino)
  done;
  (* Eight keys in flight: two CREATEs and two DELETEs. *)
  ignore (create (files + 1));
  ignore (create (files + 2));
  List.iter
    (fun ino ->
      List.iter
        (fun u -> ignore (Result.get_ok (Store.apply_volatile s u)))
        [
          Update.Unlink { dir = 0; name = Printf.sprintf "f%d" ino };
          Update.Unref { ino };
        ])
    [ 1; files ];
  Gc.minor ();
  let w0 = allocated_words () in
  Store.crash s;
  let words = allocated_words () -. w0 in
  if not (Store.in_sync s) then Alcotest.fail "crash left the views apart";
  words

let test_crash_flat () =
  let small = crash_words ~files:1_000 in
  let large = crash_words ~files:20_000 in
  Printf.printf
    "Store.crash allocates %.0f words at 1k files, %.0f at 20k files\n" small
    large;
  let slack = 1_024. in
  if Float.abs (large -. small) > slack then
    Alcotest.failf
      "Store.crash allocated %.0f words at 1k files and %.0f at 20k files, \
       more than %.0f apart"
      small large slack

let () =
  Alcotest.run "flat"
    [
      ( "run length",
        [
          Alcotest.test_case "1PC words per event, 5k vs 20k txns" `Quick
            test_words_per_event_flat;
          Alcotest.test_case "Store.crash, 1k vs 20k files" `Quick
            test_crash_flat;
        ] );
    ]
