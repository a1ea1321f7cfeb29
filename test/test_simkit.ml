(* Unit and property tests for the discrete-event kernel. *)

open Opc.Simkit

let span = Alcotest.testable Time.pp_span (fun a b -> Time.compare_span a b = 0)
let time = Alcotest.testable Time.pp Time.equal

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.span_to_ns (Time.span_us 1));
  Alcotest.(check int) "ms" 1_000_000 (Time.span_to_ns (Time.span_ms 1));
  Alcotest.(check int) "s" 1_000_000_000 (Time.span_to_ns (Time.span_s 1));
  Alcotest.check span "float roundtrip" (Time.span_ms 1500)
    (Time.span_of_float_s 1.5)

let test_time_arithmetic () =
  let t = Time.add Time.zero (Time.span_us 5) in
  Alcotest.check time "add" (Time.of_ns 5_000) t;
  Alcotest.check span "diff" (Time.span_us 5) (Time.diff t Time.zero);
  Alcotest.check span "sub_span" (Time.span_us 3)
    (Time.sub_span (Time.span_us 5) (Time.span_us 2));
  Alcotest.check span "mul" (Time.span_us 15) (Time.mul_span (Time.span_us 5) 3)

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1)));
  Alcotest.check_raises "diff underflow"
    (Invalid_argument "Time.diff: later < earlier") (fun () ->
      ignore (Time.diff Time.zero (Time.of_ns 1)));
  Alcotest.check_raises "sub underflow"
    (Invalid_argument "Time.sub_span: underflow") (fun () ->
      ignore (Time.sub_span (Time.span_ns 1) (Time.span_ns 2)))

let test_time_pp () =
  let str t = Fmt.str "%a" Time.pp_span t in
  Alcotest.(check string) "zero" "0s" (str Time.zero_span);
  Alcotest.(check string) "ns" "42ns" (str (Time.span_ns 42));
  Alcotest.(check bool) "us unit" true
    (String.length (str (Time.span_us 3)) > 0)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let draws r = List.init 50 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (draws a) (draws b);
  let c = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seed differs" true (draws a <> draws c)

let test_rng_split () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  let a = List.init 20 (fun _ -> Rng.int parent 100) in
  let b = List.init 20 (fun _ -> Rng.int child 100) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds";
    let w = Rng.int_in r (-5) 5 in
    if w < -5 || w > 5 then Alcotest.fail "int_in out of bounds";
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_rng_bernoulli () =
  let r = Rng.create ~seed:13 in
  Alcotest.(check bool) "p=0" false (Rng.bernoulli r 0.0);
  Alcotest.(check bool) "p=1" true (Rng.bernoulli r 1.0);
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  if rate < 0.25 || rate > 0.35 then
    Alcotest.failf "bernoulli(0.3) rate off: %.3f" rate

let test_rng_exponential () =
  let r = Rng.create ~seed:17 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential r ~mean:5.0 in
    if v < 0.0 then Alcotest.fail "negative exponential";
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  if mean < 4.6 || mean > 5.4 then
    Alcotest.failf "exponential mean off: %.3f" mean

let test_rng_zipf () =
  let r = Rng.create ~seed:19 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Rng.zipf r ~n:10 ~s:1.0 in
    if v < 0 || v >= 10 then Alcotest.fail "zipf out of bounds";
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 must dominate rank 9 by roughly n^s. *)
  if counts.(0) <= 3 * counts.(9) then
    Alcotest.failf "zipf not skewed: %d vs %d" counts.(0) counts.(9);
  (* s = 0 is uniform. *)
  let r = Rng.create ~seed:23 in
  let c2 = Array.make 4 0 in
  for _ = 1 to 8_000 do
    let v = Rng.zipf r ~n:4 ~s:0.0 in
    c2.(v) <- c2.(v) + 1
  done;
  Array.iter
    (fun c -> if c < 1_600 || c > 2_400 then Alcotest.fail "zipf(0) not uniform")
    c2

let test_rng_shuffle_pick () =
  let r = Rng.create ~seed:29 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle r a;
  Alcotest.(check (list int))
    "permutation" (List.init 30 Fun.id)
    (List.sort Int.compare (Array.to_list a));
  let v = Rng.pick r a in
  Alcotest.(check bool) "pick member" true (Array.exists (( = ) v) a);
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag () = log := (tag, Time.to_ns (Engine.now e)) :: !log in
  ignore (Engine.schedule e ~after:(Time.span_us 3) (record "c"));
  ignore (Engine.schedule e ~after:(Time.span_us 1) (record "a"));
  ignore (Engine.schedule e ~after:(Time.span_us 2) (record "b"));
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  let outcome = Engine.run e in
  Alcotest.(check bool) "drained" true (outcome = Engine.Drained);
  Alcotest.(check (list (pair string int)))
    "order and clock"
    [ ("a", 1_000); ("b", 2_000); ("c", 3_000) ]
    (List.rev !log);
  Alcotest.(check int) "dispatched" 3 (Engine.dispatched e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore
      (Engine.schedule e ~after:(Time.span_us 5) (fun () ->
           log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "FIFO among equal stamps" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:(Time.span_us 1) (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Engine.is_pending h);
  Engine.cancel h;
  Engine.cancel h;
  Alcotest.(check bool) "pending after" false (Engine.is_pending h);
  Alcotest.(check int) "pending count" 0 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check bool) "never fired" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:(Time.span_us 1) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:(Time.span_us 10) (fun () -> fired := 10 :: !fired));
  let outcome = Engine.run ~until:(Time.of_ns 5_000) e in
  Alcotest.(check bool) "reached until" true (outcome = Engine.Reached_until);
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !fired);
  Alcotest.check time "clock at until" (Time.of_ns 5_000) (Engine.now e);
  (* Resume. *)
  ignore (Engine.run e);
  Alcotest.(check (list int)) "rest ran" [ 1; 10 ] (List.rev !fired)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:(Time.span_us 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~after:(Time.span_us 1) (fun () ->
                log := "inner" :: !log))));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.check time "clock" (Time.of_ns 2_000) (Engine.now e)

let test_engine_defer () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:(Time.span_us 1) (fun () ->
         log := "a" :: !log;
         ignore (Engine.defer e (fun () -> log := "deferred" :: !log));
         log := "b" :: !log));
  ignore (Engine.run e);
  Alcotest.(check (list string))
    "defer runs after current event, same instant" [ "a"; "b"; "deferred" ]
    (List.rev !log);
  Alcotest.check time "no time passed" (Time.of_ns 1_000) (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    ignore (Engine.schedule e ~after:Time.zero_span (fun () -> ()))
  done;
  let outcome = Engine.run ~max_events:3 e in
  Alcotest.(check bool) "limited" true (outcome = Engine.Reached_limit);
  Alcotest.(check int) "remaining" 2 (Engine.pending e)

let test_engine_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:(Time.span_us 5) (fun () -> ()));
  ignore (Engine.run e);
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:Time.zero (fun () -> ())))

let test_engine_event_failure () =
  let e = Engine.create () in
  ignore
    (Engine.schedule e ~label:(Label.v Other "boom") ~after:Time.zero_span
       (fun () -> failwith "kaput"));
  match Engine.run e with
  | exception Engine.Event_failure (label, _) ->
      Alcotest.(check string) "label" "boom" label
  | _ -> Alcotest.fail "expected Event_failure"

(* A dispatched event's closure is garbage as soon as it has run: the
   heap slot it vacated must not keep it (or what it captures) alive
   while other events are still pending. *)
let test_engine_releases_dispatched () =
  let e = Engine.create () in
  let first = Weak.create 1 in
  let ran = ref 0 in
  for i = 0 to 9 do
    let f () = ran := !ran + i + 1 in
    if i = 0 then Weak.set first 0 (Some f);
    ignore (Engine.schedule e ~after:(Time.span_ns i) f)
  done;
  ignore (Engine.run e ~max_events:1);
  Gc.full_major ();
  Alcotest.(check int) "first ran" 1 !ran;
  Alcotest.(check int) "others pending" 9 (Engine.pending e);
  Alcotest.(check bool) "closure released" false (Weak.check first 0)

let prop_engine_monotone_clock =
  QCheck2.Test.make ~name:"dispatch times are monotone" ~count:100
    QCheck2.Gen.(list (int_bound 10_000))
    (fun delays ->
      let e = Engine.create () in
      let stamps = ref [] in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule e ~after:(Time.span_ns d) (fun () ->
                 stamps := Time.to_ns (Engine.now e) :: !stamps)))
        delays;
      ignore (Engine.run e);
      let s = List.rev !stamps in
      List.sort Int.compare s = s && List.length s = List.length delays)

(* The engine's published determinism contract: equal-time events run in
   scheduling order. Delays are drawn from a tiny range so most runs
   have many exact collisions. *)
let prop_engine_fifo_ties =
  QCheck2.Test.make ~name:"equal-time events dispatch FIFO" ~count:200
    QCheck2.Gen.(list (int_bound 3))
    (fun delays ->
      let e = Engine.create () in
      let order = ref [] in
      List.iteri
        (fun i d ->
          ignore
            (Engine.schedule e ~after:(Time.span_ns d) (fun () ->
                 order := (d, i) :: !order)))
        delays;
      ignore (Engine.run e);
      let ran = List.rev !order in
      let expected =
        List.mapi (fun i d -> (d, i)) delays
        |> List.sort (fun (da, ia) (db, ib) ->
               let c = Int.compare da db in
               if c <> 0 then c else Int.compare ia ib)
      in
      ran = expected)

(* The engine's inline 4-ary heap under the load that breaks heaps:
   colliding times, events scheduled from inside handlers, and cancels
   that leave tombstones in the queue, issued both before the run and
   from handlers. Each script entry drives one event: its delay, how
   many children its handler schedules, and which earlier event (by
   schedule index, modulo the count so far) it cancels. Checked
   throughout: dispatch strictly follows (time, schedule order), a
   cancelled event never fires, and [pending] equals the model's live
   count. *)
let prop_engine_ties_interleaved =
  QCheck2.Test.make
    ~name:"ties with cancels and nesting" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (triple (int_bound 3) (int_bound 2) (opt (int_bound 63))))
    (fun script ->
      let spec = Array.of_list script in
      let budget = 4 * Array.length spec in
      let e = Engine.create () in
      let events = Hashtbl.create 64 (* schedule index -> (at_ns, handle) *) in
      let cancelled = Hashtbl.create 16 in
      let scheduled = ref 0 and live = ref 0 and fired = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let cancel_some = function
        | Some k when !scheduled > 0 ->
            let idx = k mod !scheduled in
            let _, h = Hashtbl.find events idx in
            if Engine.is_pending h then begin
              Engine.cancel h;
              Hashtbl.replace cancelled idx ();
              decr live;
              expect (not (Engine.is_pending h))
            end
        | _ -> ()
      in
      let rec schedule i =
        let delay, _, _ = spec.(i mod Array.length spec) in
        let idx = !scheduled in
        incr scheduled;
        incr live;
        let at = Time.to_ns (Engine.now e) + delay in
        let h =
          Engine.schedule e ~after:(Time.span_ns delay) (fun () -> fire idx i)
        in
        Hashtbl.replace events idx (at, h)
      and fire idx i =
        decr live;
        expect (not (Hashtbl.mem cancelled idx));
        expect (Time.to_ns (Engine.now e) = fst (Hashtbl.find events idx));
        fired := (fst (Hashtbl.find events idx), idx) :: !fired;
        let _, children, target = spec.(i mod Array.length spec) in
        for c = 1 to children do
          if !scheduled < budget then schedule (i + c)
        done;
        cancel_some target;
        expect (Engine.pending e = !live)
      in
      Array.iteri (fun i _ -> schedule i) spec;
      Array.iteri
        (fun i (_, _, target) -> if i mod 3 = 0 then cancel_some target)
        spec;
      expect (Engine.pending e = !live);
      ignore (Engine.run e);
      let order = List.rev !fired in
      let rec increasing = function
        | a :: (b :: _ as rest) -> compare a b < 0 && increasing rest
        | _ -> true
      in
      !ok && increasing order && Engine.pending e = 0
      && List.length order + Hashtbl.length cancelled = !scheduled)

(* The same contract at a size where the engine compacts its
   tombstones: more than 2,048 events over eight colliding instants.
   Fewer than half are cancelled before the run, too few to compact.
   The first event's handler then cancels most of the rest, the
   farthest-future "canary" among them, which must compact the heap
   mid-run; later handlers keep scheduling and cancelling. Checked as
   above, plus: right after the bulk cancel the canary's closure is
   collectable, which only compaction can make it (the tombstone has
   not reached the top of the heap yet). *)
type compaction_role = Bulk | Canary | Plain

let prop_engine_compaction =
  QCheck2.Test.make ~name:"compaction keeps dispatch order" ~count:20
    QCheck2.Gen.(
      quad (int_range 2100 3000) (int_bound 40) (int_range 60 90) int)
    (fun (n, pre_pct, bulk_pct, seed) ->
      let rng = Random.State.make [| seed |] in
      let e = Engine.create () in
      let budget = 2 * n in
      (* Handles stay here only while cancellable, so a cancelled
         event's closure is reachable through the engine alone. *)
      let handles = Hashtbl.create n and times = Hashtbl.create n in
      let cancelled = Hashtbl.create n in
      let scheduled = ref 0 and live = ref 0 and fired = ref [] in
      let canary = Weak.create 1 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let cancel idx =
        match Hashtbl.find_opt handles idx with
        | Some h when Engine.is_pending h ->
            Engine.cancel h;
            Hashtbl.remove handles idx;
            Hashtbl.replace cancelled idx ();
            decr live
        | _ -> ()
      in
      let rec schedule delay role =
        let idx = !scheduled in
        incr scheduled;
        incr live;
        Hashtbl.replace times idx (Time.to_ns (Engine.now e) + delay);
        let f () = fire idx role in
        if role = Canary then Weak.set canary 0 (Some f);
        Hashtbl.replace handles idx
          (Engine.schedule e ~after:(Time.span_ns delay) f)
      and fire idx role =
        decr live;
        Hashtbl.remove handles idx;
        expect (not (Hashtbl.mem cancelled idx));
        expect (Time.to_ns (Engine.now e) = Hashtbl.find times idx);
        fired := (Hashtbl.find times idx, idx) :: !fired;
        (match role with
        | Bulk ->
            (* Index 1 is the canary. *)
            for idx = 1 to !scheduled - 1 do
              if idx = 1 || Random.State.int rng 100 < bulk_pct then cancel idx
            done;
            expect (Engine.pending e = !live);
            Gc.full_major ();
            expect (not (Weak.check canary 0))
        | Canary -> ()
        | Plain ->
            for _ = 1 to Random.State.int rng 3 do
              if !scheduled < budget then
                schedule (Random.State.int rng 8) Plain
            done;
            for _ = 1 to Random.State.int rng 4 do
              cancel (Random.State.int rng !scheduled)
            done);
        expect (Engine.pending e = !live)
      in
      schedule 0 Bulk;
      schedule 7 Canary;
      for _ = 3 to n do
        schedule (Random.State.int rng 8) Plain
      done;
      for idx = 2 to n - 1 do
        if Random.State.int rng 100 < pre_pct then cancel idx
      done;
      expect (Engine.pending e = !live);
      ignore (Engine.run e);
      let order = List.rev !fired in
      let rec increasing = function
        | a :: (b :: _ as rest) -> compare a b < 0 && increasing rest
        | _ -> true
      in
      !ok && increasing order && Engine.pending e = 0
      && List.length order + Hashtbl.length cancelled = !scheduled)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_basics () =
  let tr = Trace.create () in
  Trace.emit tr ~time:Time.zero ~source:"a" ~kind:"k1" "one";
  Trace.emitf tr ~time:(Time.of_ns 5) ~source:"b" ~kind:"k2" "%d" 2;
  Alcotest.(check int) "length" 2 (Trace.length tr);
  Alcotest.(check int) "count kind" 1 (Trace.count ~kind:"k1" tr);
  Alcotest.(check int) "count source" 1 (Trace.count ~source:"b" tr);
  Alcotest.(check int) "count both" 0 (Trace.count ~source:"a" ~kind:"k2" tr);
  (match Trace.entries tr with
  | [ e1; e2 ] ->
      Alcotest.(check string) "order" "one" e1.Trace.detail;
      Alcotest.(check string) "fmt" "2" e2.Trace.detail
  | _ -> Alcotest.fail "expected two entries");
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr)

let test_trace_disabled () =
  let tr = Trace.disabled () in
  Trace.emit tr ~time:Time.zero ~source:"x" ~kind:"k" "dropped";
  Alcotest.(check int) "drops" 0 (Trace.length tr);
  Alcotest.(check bool) "flag" false (Trace.is_recording tr)

let test_timeline_render () =
  let tr = Trace.create () in
  Trace.emit tr ~time:Time.zero ~source:"mds0" ~kind:"send" "UPDATE_REQ";
  Trace.emit tr ~time:(Time.of_ns 5_000) ~source:"mds1" ~kind:"force" "COMMIT";
  Trace.emit tr ~time:(Time.of_ns 9_000) ~source:"mds0" ~kind:"noise" "x";
  let out =
    Timeline.render
      ~keep:(fun e -> e.Trace.kind <> "noise")
      ~column_width:20 (Trace.entries tr)
  in
  let lines = String.split_on_char '\n' out |> List.filter (( <> ) "") in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      i + n <= h && (String.sub hay i n = needle || go (i + 1))
    in
    n = 0 || go 0
  in
  Alcotest.(check bool) "columns named" true
    (contains (List.nth lines 0) "mds0" && contains (List.nth lines 0) "mds1");
  Alcotest.(check bool) "entry placed" true
    (contains out "send UPDATE_REQ" && contains out "force COMMIT");
  Alcotest.(check bool) "filtered out" false (contains out "noise");
  (* Explicit source list drops others. *)
  let only0 = Timeline.render ~sources:[ "mds0" ] (Trace.entries tr) in
  Alcotest.(check bool) "mds1 dropped" false (contains only0 "COMMIT")


(* Golden swimlane: a whole two-node 1PC CREATE, rendered verbatim.
   Pins column sizing, padding, the '~' truncation marker and row
   order; drift in the renderer or in the protocol's deterministic
   timing shows up as a line diff here. *)
let test_timeline_golden () =
  let config =
    {
      Opc.Config.default with
      servers = 2;
      protocol = Opc.Acp.Protocol.Opc;
      placement = Opc.Mds.Placement.Spread;
      record_trace = true;
    }
  in
  let cluster = Opc.Cluster.create config in
  let dir =
    Opc.Cluster.add_directory cluster
      ~parent:(Opc.Cluster.root cluster)
      ~name:"d" ~server:0 ()
  in
  Opc.Cluster.submit cluster
    (Opc.Mds.Op.create_file ~parent:dir ~name:"f")
    ~on_done:(fun _ -> ());
  (match Opc.Cluster.settle cluster with
  | Opc.Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "two-node 1PC CREATE did not settle");
  let rendered =
    Timeline.render ~sources:[ "mds0"; "mds1" ]
      (Trace.entries (Opc.Cluster.trace cluster))
  in
  let expected =
    String.concat "\n"
      [
        {|time    | mds0                         | mds1                        |};
        {|--------+------------------------------+-----------------------------|};
        {|0s      | node.boot first start        |                             |};
        {|0s      |                              | node.boot first start       |};
        {|0s      | txn.start t0.0 1PC coordina~ |                             |};
        {|0s      | log.force 2 record(s), 512B  |                             |};
        {|100us   |                              | net.recv from mds0          |};
        {|100us   | net.recv from mds1           |                             |};
        {|10.24ms | log.durable 2 record(s), 51~ |                             |};
        {|10.24ms | send UPDATE_REQ t0.0 (1 upd~ |                             |};
        {|10.34ms |                              | net.recv from mds0          |};
        {|10.34ms |                              | txn.start t0.0 1PC worker   |};
        {|10.34ms |                              | log.force 2 record(s), 768B |};
        {|20.58ms |                              | log.durable 2 record(s), 76~|};
        {|20.58ms |                              | txn.commit t0.0 worker comm~|};
        {|20.58ms |                              | send UPDATED t0.0 (ok) -> m~|};
        {|20.68ms | net.recv from mds1           |                             |};
        {|20.68ms | txn.commit t0.0 worker comm~ |                             |};
        {|20.68ms | log.force 2 record(s), 768B  |                             |};
        {|30.92ms | log.durable 2 record(s), 76~ |                             |};
        {|30.92ms | send ACK t0.0 -> mds1        |                             |};
        {|30.92ms | log.gc 4 record(s) collected |                             |};
        {|31.02ms |                              | net.recv from mds0          |};
        {|31.02ms |                              | log.append 1 record(s), 192B|};
        {|41.26ms |                              | log.durable 1 record(s), 19~|};
        {|41.26ms |                              | log.gc 3 record(s) collected|};
        "";
      ]
  in
  Alcotest.(check string) "swimlane" expected rendered

let test_timeline_truncation () =
  let tr = Trace.create () in
  Trace.emit tr ~time:Time.zero ~source:"s" ~kind:"kind" "0123456789";
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  (* A cell one character over the width keeps exactly [width] chars,
     the last one the marker. *)
  let out = Timeline.render ~column_width:8 (Trace.entries tr) in
  Alcotest.(check bool) "cut to width with marker" true
    (contains out "| kind 01~\n");
  (* The boundary case: a cell of exactly the column width is kept
     whole, no marker. *)
  let exact = Timeline.render ~column_width:15 (Trace.entries tr) in
  Alcotest.(check bool) "exact fit untouched" true
    (contains exact "| kind 0123456789\n");
  (* Degenerate widths render empty cells instead of raising. *)
  List.iter
    (fun w ->
      let out = Timeline.render ~column_width:w (Trace.entries tr) in
      Alcotest.(check bool)
        (Printf.sprintf "width %d drops the cell" w)
        false (contains out "kind"))
    [ 0; -3 ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "simkit"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
          Alcotest.test_case "pp" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "zipf" `Quick test_rng_zipf;
          Alcotest.test_case "shuffle/pick" `Quick test_rng_shuffle_pick;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "nested" `Quick test_engine_nested_schedule;
          Alcotest.test_case "defer" `Quick test_engine_defer;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "past raises" `Quick test_engine_past_raises;
          Alcotest.test_case "event failure" `Quick test_engine_event_failure;
          Alcotest.test_case "releases dispatched" `Quick
            test_engine_releases_dispatched;
        ]
        @ qsuite
            [
              prop_engine_monotone_clock;
              prop_engine_fifo_ties;
              prop_engine_ties_interleaved;
              prop_engine_compaction;
            ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "timeline" `Quick test_timeline_render;
          Alcotest.test_case "timeline golden" `Quick test_timeline_golden;
          Alcotest.test_case "timeline truncation" `Quick
            test_timeline_truncation;
        ] );
    ]
