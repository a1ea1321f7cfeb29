type t = Acp of Acp.Wire.t | Heartbeat

let pp ppf = function
  | Acp w -> Acp.Wire.pp ppf w
  | Heartbeat -> Fmt.string ppf "HEARTBEAT"

(* Heartbeats take the first tag past the wire's. *)
let tag_count = Acp.Wire.tag_count + 1
let tag = function Acp w -> Acp.Wire.tag w | Heartbeat -> Acp.Wire.tag_count

let tag_name t =
  if t = Acp.Wire.tag_count then "HEARTBEAT" else Acp.Wire.tag_name t
