type kind =
  | Crash
  | Reboot
  | Serving
  | Suspect of { peer : int }
  | Fence_begin of { victim : int }
  | Fence_end of { victim : int }
  | Mount of { target : int }
  | Scan_begin of { target : int }
  | Scan_end of { target : int; records : int }
  | Orphan_resolved of { origin : int; seq : int }
  | Heal
  | Fault_injected of { index : int; desc : string }

type entry = { time : Simkit.Time.t; node : int; kind : kind }

let dummy = { time = Simkit.Time.zero; node = -1; kind = Heal }

type t = {
  enabled : bool;
  mutable entries : entry array;
  mutable len : int;
  (* Mirror tap (the flight recorder's ring): sees each entry as it is
     appended. Only fires on an enabled journal, so a disabled journal
     keeps its single load-and-branch emit cost. *)
  mutable has_tap : bool;
  mutable tap : entry -> unit;
}

let create () =
  {
    enabled = true;
    entries = Array.make 256 dummy;
    len = 0;
    has_tap = false;
    tap = ignore;
  }

let disabled () =
  { enabled = false; entries = [||]; len = 0; has_tap = false; tap = ignore }

let is_recording t = t.enabled

let set_tap t f =
  t.has_tap <- true;
  t.tap <- f

let emit t ~time ~node kind =
  if t.enabled then begin
    if t.len = Array.length t.entries then begin
      let grown = Array.make (max 256 (2 * t.len)) dummy in
      Array.blit t.entries 0 grown 0 t.len;
      t.entries <- grown
    end;
    let e = { time; node; kind } in
    t.entries.(t.len) <- e;
    t.len <- t.len + 1;
    if t.has_tap then t.tap e
  end

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Obs.Journal.get: index out of bounds";
  t.entries.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.entries.(i)
  done

let entries t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    out := t.entries.(i) :: !out
  done;
  !out

let event_name = function
  | Crash -> "crash"
  | Reboot -> "reboot"
  | Serving -> "serving"
  | Suspect _ -> "suspect"
  | Fence_begin _ -> "fence.begin"
  | Fence_end _ -> "fence.end"
  | Mount _ -> "mount"
  | Scan_begin _ -> "scan.begin"
  | Scan_end _ -> "scan.end"
  | Orphan_resolved _ -> "orphan.resolved"
  | Heal -> "heal"
  | Fault_injected _ -> "fault.injected"

let escape = Json_str.escape

let pp_entry ppf e =
  let fields =
    match e.kind with
    | Crash | Reboot | Serving | Heal -> ""
    | Suspect { peer } -> Printf.sprintf ",\"peer\":%d" peer
    | Fence_begin { victim } | Fence_end { victim } ->
        Printf.sprintf ",\"victim\":%d" victim
    | Mount { target } | Scan_begin { target } ->
        Printf.sprintf ",\"target\":%d" target
    | Scan_end { target; records } ->
        Printf.sprintf ",\"target\":%d,\"records\":%d" target records
    | Orphan_resolved { origin; seq } ->
        Printf.sprintf ",\"origin\":%d,\"seq\":%d" origin seq
    | Fault_injected { index; desc } ->
        Printf.sprintf ",\"index\":%d,\"desc\":\"%s\"" index (escape desc)
  in
  Fmt.pf ppf "{\"t_ns\":%d,\"node\":%d,\"event\":\"%s\"%s}"
    (Simkit.Time.to_ns e.time)
    e.node
    (event_name e.kind)
    fields

let to_file path t =
  Json.write_file path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      iter (fun e -> Fmt.pf ppf "%a@\n" pp_entry e) t;
      Format.pp_print_flush ppf ())
