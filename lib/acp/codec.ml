(* Unsigned LEB128 over OCaml's 63-bit non-negative ints. *)
let write_varint buf n =
  if n < 0 then invalid_arg "Codec: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let write_list buf write xs =
  write_varint buf (List.length xs);
  List.iter (write buf) xs

let write_tag buf t = Buffer.add_char buf (Char.chr t)

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)
(* ------------------------------------------------------------------ *)

let write_kind buf = function
  | Mds.Update.File -> write_tag buf 0
  | Mds.Update.Directory -> write_tag buf 1

let write_update buf (u : Mds.Update.t) =
  match u with
  | Create_inode { ino; kind; nlink } ->
      write_tag buf 0;
      write_varint buf ino;
      write_kind buf kind;
      write_varint buf nlink
  | Link { dir; name; target } ->
      write_tag buf 1;
      write_varint buf dir;
      write_string buf name;
      write_varint buf target
  | Unlink { dir; name } ->
      write_tag buf 2;
      write_varint buf dir;
      write_string buf name
  | Ref { ino } ->
      write_tag buf 3;
      write_varint buf ino
  | Unref { ino } ->
      write_tag buf 4;
      write_varint buf ino
  | Touch { ino } ->
      write_tag buf 5;
      write_varint buf ino

(* ------------------------------------------------------------------ *)
(* Operations and plans                                                *)
(* ------------------------------------------------------------------ *)

let write_op buf (op : Mds.Op.t) =
  match op with
  | Create { parent; name; kind } ->
      write_tag buf 0;
      write_varint buf parent;
      write_string buf name;
      write_kind buf kind
  | Delete { parent; name } ->
      write_tag buf 1;
      write_varint buf parent;
      write_string buf name
  | Rename { src_dir; src_name; dst_dir; dst_name } ->
      write_tag buf 2;
      write_varint buf src_dir;
      write_string buf src_name;
      write_varint buf dst_dir;
      write_string buf dst_name

let write_side buf (side : Mds.Plan.side) =
  write_varint buf side.Mds.Plan.server;
  write_list buf write_varint side.Mds.Plan.lock_oids;
  write_list buf write_update side.Mds.Plan.updates

let write_plan buf (plan : Mds.Plan.t) =
  write_op buf plan.Mds.Plan.op;
  (match plan.Mds.Plan.new_ino with
  | None -> write_tag buf 0
  | Some ino ->
      write_tag buf 1;
      write_varint buf ino);
  write_side buf plan.Mds.Plan.coordinator;
  write_list buf write_side plan.Mds.Plan.workers

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let write_txn buf (id : Txn.id) =
  write_varint buf id.Txn.origin;
  write_varint buf id.Txn.seq

let write_record buf (r : Log_record.t) =
  match r with
  | Started { txn; participants } ->
      write_tag buf 0;
      write_txn buf txn;
      write_list buf write_varint participants
  | Redo { txn; plan } ->
      write_tag buf 1;
      write_txn buf txn;
      write_plan buf plan
  | Updates { txn; updates } ->
      write_tag buf 2;
      write_txn buf txn;
      write_list buf write_update updates
  | Prepared { txn } ->
      write_tag buf 3;
      write_txn buf txn
  | Committed { txn } ->
      write_tag buf 4;
      write_txn buf txn
  | Aborted { txn } ->
      write_tag buf 5;
      write_txn buf txn
  | Ended { txn } ->
      write_tag buf 6;
      write_txn buf txn

let encoded_size r =
  let buf = Buffer.create 64 in
  write_record buf r;
  Buffer.length buf
