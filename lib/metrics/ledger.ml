type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let incr t key =
  match Hashtbl.find_opt t key with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.replace t key (ref 1)

let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0

let snapshot t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
