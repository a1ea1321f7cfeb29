type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Obs.Json: non-finite float %h" f);
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      Json_str.add_escaped buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf (Str k);
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  to_buffer buf j;
  Buffer.contents buf

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path write =
  mkdirs (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)

let to_file path j =
  let s = to_string j in
  write_file path (fun oc ->
      output_string oc s;
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Strict reader                                                       *)
(* ------------------------------------------------------------------ *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> raise (Parse_error (Printf.sprintf "offset %d: %s" !pos msg)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> incr pos
    | Some d -> fail "expected %C, found %C" c d
    | None -> fail "expected %C, found end of input" c
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "expected %s" word
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  (* Code points decode to UTF-8, so an escaped non-ASCII character reads
     back as the bytes an unescaped one would have been. *)
  let add_utf8 buf code =
    let byte b = Buffer.add_char buf (Char.chr b) in
    if code < 0x80 then byte code
    else if code < 0x800 then begin
      byte (0xC0 lor (code lsr 6));
      byte (0x80 lor (code land 0x3F))
    end
    else begin
      byte (0xE0 lor (code lsr 12));
      byte (0x80 lor ((code lsr 6) land 0x3F));
      byte (0x80 lor (code land 0x3F))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          incr pos;
          Buffer.contents buf
      | Some '\\' ->
          incr pos;
          (match peek () with
          | None -> fail "unterminated escape"
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code = ref 0 in
              for i = 1 to 4 do
                code := (!code * 16) + hex_digit s.[!pos + i]
              done;
              add_utf8 buf !code;
              pos := !pos + 4
          | Some c -> fail "bad escape \\%c" c);
          incr pos;
          go ()
      | Some c when Char.code c < 0x20 ->
          fail "raw control byte 0x%02x in string" (Char.code c)
      | Some c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  (* RFC 8259: optional minus, then 0 or a nonzero digit run, then an
     optional fraction and exponent, each needing at least one digit. *)
  let number () =
    let start = !pos in
    let is_digit () =
      match peek () with Some '0' .. '9' -> true | _ -> false
    in
    let digits () =
      if not (is_digit ()) then fail "expected a digit";
      while is_digit () do
        incr pos
      done
    in
    if peek () = Some '-' then incr pos;
    (match peek () with
    | Some '0' -> incr pos
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected a digit");
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    match (!integral, int_of_string_opt tok) with
    | true, Some i -> Int i
    | _ -> Float (float_of_string tok)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail "unexpected %C" c
    | None -> fail "unexpected end of input"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      List []
    end
    else
      let rec go acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go (v :: acc)
        | Some ']' ->
            incr pos;
            List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      go []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec go acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go ((k, v) :: acc)
        | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      go []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let of_file path = parse (read_file path)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int = function
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let to_str = function Some (Str s) -> Some s | _ -> None
