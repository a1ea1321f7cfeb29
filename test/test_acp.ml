(* Unit tests for transaction types, wire messages, log records, the
   recovery log scan and the analytic cost model. *)

open Opc.Acp

let id origin seq = { Txn.origin; seq }

let test_txn_ids () =
  Alcotest.(check bool) "equal" true (Txn.id_equal (id 1 2) (id 1 2));
  Alcotest.(check bool) "differ" false (Txn.id_equal (id 1 2) (id 2 1));
  Alcotest.(check int) "compare orders by origin" (-1)
    (compare (Txn.id_compare (id 0 9) (id 1 0)) 0);
  Alcotest.(check bool) "outcome" true (Txn.is_committed Txn.Committed);
  Alcotest.(check bool) "outcome" false (Txn.is_committed (Txn.Aborted "x"))

let test_owner_token_injective () =
  let seen = Hashtbl.create 64 in
  for origin = 0 to 7 do
    for seq = 0 to 63 do
      let token = Txn.owner_token (id origin seq) in
      if Hashtbl.mem seen token then Alcotest.fail "token collision";
      Hashtbl.replace seen token ()
    done
  done

let test_wire_classification () =
  let t = id 0 1 in
  let baseline =
    [
      Wire.Update_req
        { txn = t; updates = []; piggyback_prepare = false; one_phase = false };
      Wire.Updated { txn = t; ok = true };
    ]
  in
  let acp =
    [
      Wire.Prepare { txn = t };
      Wire.Prepared { txn = t; vote = true };
      Wire.Commit { txn = t };
      Wire.Abort { txn = t };
      Wire.Ack { txn = t };
      Wire.Decision_req { txn = t };
      Wire.Decision { txn = t; committed = true };
      Wire.Ack_req { txn = t };
    ]
  in
  List.iter
    (fun m -> Alcotest.(check bool) (Wire.label m) true (Wire.is_baseline m))
    baseline;
  List.iter
    (fun m -> Alcotest.(check bool) (Wire.label m) false (Wire.is_baseline m))
    acp;
  List.iter
    (fun m -> Alcotest.(check bool) "txn" true (Txn.id_equal (Wire.txn m) t))
    (baseline @ acp)

let test_record_sizing () =
  let s = Log_record.default_sizing in
  Alcotest.(check int) "state" s.Log_record.state_record_bytes
    (Log_record.size s (Log_record.Committed { txn = id 0 0 }));
  Alcotest.(check int) "redo" s.Log_record.redo_bytes
    (Log_record.size s
       (Log_record.Redo
          {
            txn = id 0 0;
            plan =
              {
                Opc.Mds.Plan.op = Opc.Mds.Op.create_file ~parent:0 ~name:"f";
                new_ino = None;
                coordinator =
                  { Opc.Mds.Plan.server = 0; lock_oids = []; updates = [] };
                workers = [];
              };
          }));
  let updates =
    [
      Opc.Mds.Update.Touch { ino = 1 };
      Opc.Mds.Update.Touch { ino = 2 };
      Opc.Mds.Update.Touch { ino = 3 };
    ]
  in
  Alcotest.(check int) "updates scale" (3 * s.Log_record.update_bytes)
    (Log_record.size s (Log_record.Updates { txn = id 0 0; updates }))

let test_log_scan () =
  let t1 = id 0 1 and t2 = id 0 2 and t3 = id 1 7 in
  let records =
    [
      Log_record.Started { txn = t1; participants = [ 1 ] };
      Log_record.Started { txn = t2; participants = [ 2; 3 ] };
      Log_record.Updates { txn = t1; updates = [ Opc.Mds.Update.Touch { ino = 9 } ] };
      Log_record.Prepared { txn = t1 };
      Log_record.Updates { txn = t3; updates = [] };
      Log_record.Committed { txn = t1 };
      Log_record.Aborted { txn = t2 };
      Log_record.Ended { txn = t1 };
    ]
  in
  let images = Log_scan.scan records in
  Alcotest.(check int) "three transactions" 3 (List.length images);
  (* First-appearance order. *)
  (match images with
  | [ a; b; c ] ->
      Alcotest.(check bool) "order" true
        (Txn.id_equal a.Log_scan.id t1 && Txn.id_equal b.Log_scan.id t2
        && Txn.id_equal c.Log_scan.id t3)
  | _ -> Alcotest.fail "order");
  (match Log_scan.find records t1 with
  | Some img ->
      Alcotest.(check bool) "t1 fields" true
        (img.Log_scan.started && img.Log_scan.prepared
        && img.Log_scan.committed && img.Log_scan.ended
        && (not img.Log_scan.aborted)
        && List.length img.Log_scan.updates = 1
        && img.Log_scan.participants = [ 1 ]);
      Alcotest.(check bool) "t1 not in doubt" false (Log_scan.in_doubt img)
  | None -> Alcotest.fail "t1 missing");
  (match Log_scan.find records t2 with
  | Some img ->
      Alcotest.(check bool) "t2 aborted" true img.Log_scan.aborted;
      Alcotest.(check bool) "t2 not in doubt" false (Log_scan.in_doubt img)
  | None -> Alcotest.fail "t2 missing");
  (* A started-only image is in doubt. *)
  let only_started =
    Log_scan.scan [ Log_record.Started { txn = t1; participants = [] } ]
  in
  (match only_started with
  | [ img ] -> Alcotest.(check bool) "in doubt" true (Log_scan.in_doubt img)
  | _ -> Alcotest.fail "scan");
  Alcotest.(check bool) "find miss" true (Log_scan.find records (id 9 9) = None)

let test_protocol_names () =
  List.iter
    (fun k ->
      match Protocol.of_name (Protocol.name k) with
      | Some k' -> Alcotest.(check bool) "roundtrip" true (k = k')
      | None -> Alcotest.fail "name roundtrip")
    Protocol.all;
  Alcotest.(check bool) "2pc alias" true (Protocol.of_name "2PC" = Some Protocol.Prn);
  Alcotest.(check bool) "opc alias" true (Protocol.of_name "opc" = Some Protocol.Opc);
  Alcotest.(check bool) "l1pc alias" true
    (Protocol.of_name "l1pc" = Some Protocol.Lp1);
  Alcotest.(check bool) "lp1 alias" true
    (Protocol.of_name "LP1" = Some Protocol.Lp1);
  Alcotest.(check bool) "junk" true (Protocol.of_name "3pc" = None);
  Alcotest.(check bool) "1pc two servers only" true
    (Protocol.max_workers Protocol.Opc = Some 1);
  Alcotest.(check bool) "2pc unlimited" true
    (Protocol.max_workers Protocol.Prn = None)

(* The derivation must agree with the published table, column by
   column. *)
let test_cost_model_matches_paper () =
  List.iter
    (fun k ->
      let derived = Cost_model.failure_free k in
      let paper = Cost_model.paper_table1 k in
      Alcotest.(check bool)
        (Printf.sprintf "%s matches Table I" (Protocol.name k))
        true (derived = paper))
    Protocol.all

let test_cost_model_values () =
  let c = Cost_model.failure_free Protocol.Opc in
  Alcotest.(check int) "1PC total sync" 3 c.Cost_model.total_sync;
  Alcotest.(check int) "1PC critical sync" 2 c.Cost_model.critical_sync;
  Alcotest.(check int) "1PC messages" 1 c.Cost_model.total_messages;
  Alcotest.(check int) "1PC critical messages" 0 c.Cost_model.critical_messages;
  let p = Cost_model.failure_free Protocol.Prn in
  Alcotest.(check int) "PrN total sync" 5 p.Cost_model.total_sync;
  Alcotest.(check int) "PrN critical messages" 4 p.Cost_model.critical_messages;
  (* L1PC trades log writes for replication messages: zero forces
     anywhere, but a bigger message bill than 1PC. *)
  let l = Cost_model.failure_free Protocol.Lp1 in
  Alcotest.(check int) "L1PC total sync" 0 l.Cost_model.total_sync;
  Alcotest.(check int) "L1PC critical sync" 0 l.Cost_model.critical_sync;
  Alcotest.(check int) "L1PC total async" 0 l.Cost_model.total_async;
  Alcotest.(check int) "L1PC messages" 8 l.Cost_model.total_messages;
  Alcotest.(check int) "L1PC critical messages" 2 l.Cost_model.critical_messages;
  (* The paper's ordering: every column weakly improves down Table I.
     That claim covers the logged protocols; L1PC sits outside the table
     (it spends messages to eliminate writes), so it is excluded here and
     pinned exactly above instead. *)
  let seq =
    List.map Cost_model.failure_free
      [ Protocol.Prn; Protocol.Prc; Protocol.Ep; Protocol.Opc ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Cost_model.total_sync >= b.Cost_model.total_sync
        && a.Cost_model.critical_sync >= b.Cost_model.critical_sync
        && a.Cost_model.total_messages >= b.Cost_model.total_messages
        && a.Cost_model.critical_messages >= b.Cost_model.critical_messages
        && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone improvement" true (monotone seq)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  n = 0 || go 0

let test_cost_model_table_renders () =
  let s = Opc.Metrics.Table.render (Cost_model.table ()) in
  List.iter
    (fun needle ->
      if not (contains s needle) then Alcotest.failf "table missing %S" needle)
    [ "PrN"; "PrC"; "EP"; "1PC"; "L1PC"; "(5, 1)"; "(3, 1)"; "(0, 0)" ]

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

(* Varint widths seen through the record sizer: [Committed] is a tag
   byte plus two varints, so its size grows by one byte exactly at each
   7-bit boundary of the sequence number. *)
let test_codec_varint () =
  let size seq =
    Codec.encoded_size (Log_record.Committed { txn = id 0 seq })
  in
  List.iter
    (fun (seq, bytes) ->
      Alcotest.(check int) (Printf.sprintf "seq %d" seq) bytes (size seq))
    [ (0, 3); (127, 3); (128, 4); (16_383, 4); (16_384, 5); (max_int, 11) ];
  Alcotest.check_raises "negative" (Invalid_argument "Codec: negative varint")
    (fun () -> ignore (size (-1)))

(* One value per constructor, with the bytes the [encoded_sizes]
   ablation charges for it. These must not move: a different size is a
   different simulated disk. *)
let every_record =
  let txn = id 2 41 in
  [
    (Log_record.Started { txn; participants = [ 0; 3; 7 ] }, 7);
    ( Log_record.Redo
        {
          txn;
          plan =
            {
              Opc.Mds.Plan.op = Opc.Mds.Op.create_file ~parent:1 ~name:"f";
              new_ino = Some 9;
              coordinator =
                {
                  Opc.Mds.Plan.server = 0;
                  lock_oids = [ 1 ];
                  updates = [ Opc.Mds.Update.Touch { ino = 1 } ];
                };
              workers = [];
            };
        },
      17 );
    ( Log_record.Updates
        { txn; updates = [ Opc.Mds.Update.Unlink { dir = 4; name = "x" } ] },
      8 );
    (Log_record.Prepared { txn }, 3);
    (Log_record.Committed { txn }, 3);
    (Log_record.Aborted { txn }, 3);
    (Log_record.Ended { txn }, 3);
  ]

let test_codec_every_record_constructor () =
  List.iter
    (fun (r, bytes) ->
      Alcotest.(check int) (Fmt.str "%a" Log_record.pp r) bytes
        (Codec.encoded_size r))
    every_record

let test_codec_sizes_are_small () =
  (* Encoded state records are far below the calibrated constants —
     what makes the encoded-size ablation meaningful. *)
  let r = Log_record.Committed { txn = id 3 77 } in
  Alcotest.(check bool) "compact" true (Codec.encoded_size r < 16)

(* ------------------------------------------------------------------ *)
(* Wire tags                                                           *)
(* ------------------------------------------------------------------ *)

(* One value per constructor. *)
let every_message =
  let txn = id 5 13 in
  [
    Wire.Update_req
      {
        txn;
        updates = [ Opc.Mds.Update.Ref { ino = 8 } ];
        piggyback_prepare = true;
        one_phase = false;
      };
    Wire.Updated { txn; ok = false };
    Wire.Prepare { txn };
    Wire.Prepared { txn; vote = true };
    Wire.Commit { txn };
    Wire.Abort { txn };
    Wire.Ack { txn };
    Wire.Decision_req { txn };
    Wire.Decision { txn; committed = true };
    Wire.Ack_req { txn };
    Wire.Vote_req { txn; updates = [ Opc.Mds.Update.Touch { ino = 4 } ] };
    Wire.Vote { txn; vote = false };
    Wire.Rep_store
      { txn; owner = 2; updates = [ Opc.Mds.Update.Unref { ino = 9 } ] };
    Wire.Rep_ack { txn };
    Wire.Decide
      { txn; commit = true; updates = [ Opc.Mds.Update.Ref { ino = 3 } ] };
    Wire.Decide_ack { txn };
    Wire.Rep_drop { txn };
    Wire.Recover_req { owner = 3 };
    Wire.Recover_resp
      {
        owner = 3;
        items =
          [
            (id 1 4, [ Opc.Mds.Update.Touch { ino = 11 } ]);
            (id 2 6, []);
          ];
      };
  ]

(* The network meter indexes flat arrays by tag: every
   constructor needs its own tag, and the tags must fill
   [0, tag_count) with no gap. [every_message] lists the constructors in
   declaration order, which is also the pinned tag order. *)
let test_wire_tags_exhaustive () =
  let tags = List.map Wire.tag every_message in
  Alcotest.(check int) "distinct" (List.length every_message)
    (List.length (List.sort_uniq Int.compare tags));
  Alcotest.(check (list int)) "dense, in declaration order"
    (List.init Wire.tag_count Fun.id)
    tags;
  List.iter
    (fun m ->
      Alcotest.(check string) (Wire.label m)
        (String.uppercase_ascii (Wire.label m))
        (Wire.tag_name (Wire.tag m)))
    every_message;
  Alcotest.(check string) "below range" "?" (Wire.tag_name (-1));
  Alcotest.(check string) "above range" "?" (Wire.tag_name Wire.tag_count);
  Alcotest.(check bool) "no baseline tag below range" false
    (Wire.is_baseline_tag (-1));
  Alcotest.(check bool) "no baseline tag above range" false
    (Wire.is_baseline_tag Wire.tag_count)

let () =
  Alcotest.run "acp"
    [
      ( "txn",
        [
          Alcotest.test_case "ids" `Quick test_txn_ids;
          Alcotest.test_case "owner token injective" `Quick
            test_owner_token_injective;
        ] );
      ( "wire",
        [
          Alcotest.test_case "classification" `Quick test_wire_classification;
          Alcotest.test_case "tags are exhaustive" `Quick
            test_wire_tags_exhaustive;
        ] );
      ( "log",
        [
          Alcotest.test_case "record sizing" `Quick test_record_sizing;
          Alcotest.test_case "scan" `Quick test_log_scan;
        ] );
      ( "protocol",
        [ Alcotest.test_case "names" `Quick test_protocol_names ] );
      ( "cost model",
        [
          Alcotest.test_case "matches paper" `Quick
            test_cost_model_matches_paper;
          Alcotest.test_case "values" `Quick test_cost_model_values;
          Alcotest.test_case "table renders" `Quick
            test_cost_model_table_renders;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint" `Quick test_codec_varint;
          Alcotest.test_case "compact sizes" `Quick test_codec_sizes_are_small;
          Alcotest.test_case "every record constructor" `Quick
            test_codec_every_record_constructor;
        ] );
    ]
