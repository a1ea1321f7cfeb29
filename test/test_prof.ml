(* Tests for the host profiler (Obs.Prof) and the shared JSON string
   escaper (Obs.Json_str) added with the profiling work.

   The two acceptance properties the design demands are pinned here:
   profiling is invisible to the simulation (golden digits are
   bit-identical with it on), and the report telescopes exactly — the
   buckets plus the residual sum to the measured run totals with
   tolerance zero, for both CPU nanoseconds and minor-heap words. The
   escaper is round-tripped through the bench harness's own strict
   JSON reader, byte for byte, over every possible byte. *)

open Opc

let pname = Acp.Protocol.name

(* ------------------------------------------------------------------ *)
(* Passivity: golden digits with profiling on                          *)
(* ------------------------------------------------------------------ *)

(* Same pins as test_golden.ml's fig6_golden — restated so a drift in
   either file trips loudly. *)
let fig6_golden =
  [
    (Acp.Protocol.Prn, "16.28", 100, 0, 3_604_610_000, 61_232_800);
    (Acp.Protocol.Prc, "19.49", 100, 0, 3_092_240_000, 51_194_200);
    (Acp.Protocol.Ep, "19.53", 100, 0, 3_087_339_500, 51_096_190);
    (Acp.Protocol.Opc, "24.60", 100, 0, 2_544_941_400, 40_552_400);
  ]

let test_fig6_prof_enabled () =
  let config =
    { Experiment.fig6_config with Opc_cluster.Config.record_prof = true }
  in
  List.iter
    (fun (kind, throughput, committed, aborted, latency_ns, lock_ns) ->
      let p = Experiment.run_fig6_point ~config kind in
      Alcotest.(check string)
        (pname kind ^ " throughput (prof on)")
        throughput
        (Printf.sprintf "%.2f" p.Experiment.throughput);
      Alcotest.(check int)
        (pname kind ^ " committed (prof on)")
        committed p.committed;
      Alcotest.(check int)
        (pname kind ^ " aborted (prof on)")
        aborted p.aborted;
      Alcotest.(check int)
        (pname kind ^ " mean latency ns (prof on)")
        latency_ns
        (Simkit.Time.span_to_ns p.mean_latency);
      Alcotest.(check int)
        (pname kind ^ " mean lock hold ns (prof on)")
        lock_ns
        (Simkit.Time.span_to_ns p.mean_lock_hold))
    fig6_golden

(* The scale-point pins from test_golden.ml, reproduced under
   record_prof — and since the profiled run returns its report through
   the scale point, the report must be there and cover the run. *)
let profiled_scale_point () =
  let config =
    {
      (Experiment.scale_config ~servers:8 ~seed:1) with
      Opc_cluster.Config.record_prof = true;
    }
  in
  Experiment.run_scale_point ~config ~servers:8 ~txns:2000 ~seed:1
    Acp.Protocol.Opc

let test_scale_point_prof_enabled () =
  let p = profiled_scale_point () in
  Alcotest.(check int) "submitted" 1896 p.Experiment.submitted;
  Alcotest.(check int) "committed" 1896 p.committed;
  Alcotest.(check int) "aborted" 0 p.aborted;
  Alcotest.(check int) "events" 37944 p.events;
  Alcotest.(check int) "sim elapsed ns" 11_937_751_000
    (Simkit.Time.span_to_ns p.sim_elapsed);
  Alcotest.(check int) "p50 ns" 82_220_000
    (Simkit.Time.span_to_ns p.latency_p50);
  Alcotest.(check int) "p95 ns" 185_228_000
    (Simkit.Time.span_to_ns p.latency_p95);
  Alcotest.(check int) "p99 ns" 276_176_000
    (Simkit.Time.span_to_ns p.latency_p99);
  match p.profile with
  | None -> Alcotest.fail "record_prof run must return a profile"
  | Some r ->
      Alcotest.(check bool) "profile has buckets" true (r.Obs.Prof.buckets <> [])

(* ------------------------------------------------------------------ *)
(* Telescoping: buckets + residual == measured totals, exactly         *)
(* ------------------------------------------------------------------ *)

let check_telescopes tag (r : Obs.Prof.report) =
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 r.Obs.Prof.buckets in
  Alcotest.(check int)
    (tag ^ ": cpu_ns telescopes")
    r.Obs.Prof.total_cpu_ns
    (sum (fun b -> b.Obs.Prof.cpu_ns) + r.Obs.Prof.residual_cpu_ns);
  Alcotest.(check int)
    (tag ^ ": minor_words telescopes")
    r.Obs.Prof.total_minor_words
    (sum (fun b -> b.Obs.Prof.minor_words) + r.Obs.Prof.residual_minor_words);
  Alcotest.(check int)
    (tag ^ ": dispatches telescope")
    r.Obs.Prof.total_dispatches
    (sum (fun b -> b.Obs.Prof.dispatches));
  (* the by_subsystem rollup telescopes too, residual included under
     "engine" *)
  let roll = Obs.Prof.by_subsystem r in
  Alcotest.(check bool)
    (tag ^ ": rollup books the residual under engine")
    true
    (List.exists
       (fun (s, _, _) -> s = Obs.Prof.residual_subsystem)
       roll);
  Alcotest.(check int)
    (tag ^ ": rollup cpu telescopes")
    r.Obs.Prof.total_cpu_ns
    (List.fold_left (fun acc (_, cpu, _) -> acc + cpu) 0 roll)

let test_report_telescopes () =
  let p = profiled_scale_point () in
  match p.Experiment.profile with
  | None -> Alcotest.fail "record_prof run must return a profile"
  | Some r ->
      check_telescopes "scale point" r;
      Alcotest.(check int)
        "every dispatch is attributed"
        p.Experiment.events r.Obs.Prof.total_dispatches;
      (* sanity on the window: nothing is free *)
      Alcotest.(check bool) "total cpu > 0" true (r.Obs.Prof.total_cpu_ns > 0);
      Alcotest.(check bool)
        "buckets sorted by cpu descending" true
        (let rec sorted = function
           | a :: (b :: _ as rest) ->
               a.Obs.Prof.cpu_ns >= b.Obs.Prof.cpu_ns && sorted rest
           | _ -> true
         in
         sorted r.Obs.Prof.buckets)

(* Disabled / misuse guards. *)
let test_prof_guards () =
  let engine = Simkit.Engine.create () in
  let off = Obs.Prof.disabled () in
  Alcotest.(check bool) "disabled is not recording" false
    (Obs.Prof.is_recording off);
  Obs.Prof.attach off engine;
  Alcotest.check_raises "report on disabled"
    (Invalid_argument "Obs.Prof.report: profiler disabled")
    (fun () -> ignore (Obs.Prof.report off));
  let on = Obs.Prof.create () in
  Alcotest.check_raises "report before attach"
    (Invalid_argument "Obs.Prof.report: never attached")
    (fun () -> ignore (Obs.Prof.report on));
  Obs.Prof.attach on engine;
  Alcotest.check_raises "double attach"
    (Invalid_argument "Obs.Prof.attach: already attached")
    (fun () -> Obs.Prof.attach on engine)

(* ------------------------------------------------------------------ *)
(* JSON escaping round-trips through Obs.Json's strict reader         *)
(* ------------------------------------------------------------------ *)

let roundtrip s =
  let doc = "\"" ^ Obs.Json_str.escape s ^ "\"" in
  match Obs.Json.parse doc with
  | Obs.Json.Str s' -> s'
  | _ -> Alcotest.fail "escaped string parsed as a non-string"

let test_escape_roundtrip_bytes () =
  (* every byte, alone and sandwiched, survives escape -> parse *)
  for c = 0 to 255 do
    let s = Printf.sprintf "a%cb" (Char.chr c) in
    Alcotest.(check string) (Printf.sprintf "byte 0x%02x" c) s (roundtrip s)
  done;
  List.iter
    (fun s -> Alcotest.(check string) ("literal " ^ String.escaped s) s
        (roundtrip s))
    [
      "";
      "plain";
      "with \"quotes\" and \\backslashes\\";
      "tab\there\nnewline\rreturn\bbackspace\012formfeed";
      "\x00\x01\x1f\x7f\xff";
      "path\\to\\nowhere";
      "{\"not\":\"json\"}";
    ]

let test_escape_roundtrip_random () =
  let gen = QCheck.string_of_size (QCheck.Gen.int_range 0 64) in
  QCheck.Test.make ~count:500 ~name:"escape round-trips through Obs.Json" gen
    (fun s -> roundtrip s = s)
  |> QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "prof"
    [
      ( "passivity",
        [
          Alcotest.test_case "figure 6 digits, prof enabled" `Quick
            test_fig6_prof_enabled;
          Alcotest.test_case "scale point digits, prof enabled" `Quick
            test_scale_point_prof_enabled;
        ] );
      ( "report",
        [
          Alcotest.test_case "buckets + residual telescope exactly" `Quick
            test_report_telescopes;
          Alcotest.test_case "guards" `Quick test_prof_guards;
        ] );
      ( "json-escape",
        [
          Alcotest.test_case "all bytes round-trip" `Quick
            test_escape_roundtrip_bytes;
          test_escape_roundtrip_random ();
        ] );
    ]
