let escape = Json_str.escape

let us_of_time t = float_of_int (Simkit.Time.to_ns t) /. 1e3
let us_of_span s = float_of_int (Simkit.Time.span_to_ns s) /. 1e3

let to_buffer buf tracer =
  (* Stable track -> tid mapping in order of first appearance, each
     announced with a thread_name metadata event. *)
  let tids = Hashtbl.create 16 in
  let next_tid = ref 0 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ','
  in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some tid -> tid
    | None ->
        let tid = !next_tid in
        incr next_tid;
        Hashtbl.add tids track tid;
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             tid (escape track));
        tid
  in
  Tracer.iter
    (fun (s : Span.t) ->
      if s.closed then begin
        let tid = tid_of s.track in
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"txn\":%d%s}}"
             (escape s.name)
             (Span.category_name s.category)
             (us_of_time s.start)
             (us_of_span (Span.duration s))
             tid s.txn
             (if s.baseline then ",\"baseline\":true" else ""))
      end)
    tracer;
  Buffer.add_string buf "]}"

let to_string tracer =
  let buf = Buffer.create 4096 in
  to_buffer buf tracer;
  Buffer.contents buf

let to_file path tracer =
  Json.write_file path (fun oc ->
      output_string oc (to_string tracer);
      output_char oc '\n')
