(* The one JSON string escaper. Every hand-rolled JSON writer in the
   tree (Chrome traces, journal and recorder JSONL, Json's emitter)
   funnels through here so labels and fault descriptions with
   quotes, backslashes or control bytes cannot silently produce invalid
   JSON in one writer but not another. Strings are treated as bytes:
   anything >= 0x20 other than '"' and '\\' passes through verbatim. *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf
