(* The volatile view is mutated in place and never replaced: a crash
   puts back, from the durable view, only the keys recorded below.

   The record holds the key of every update applied to either view
   since the views last agreed: inode numbers in [inos], dentries as
   [dirs.(i)]/[names.(i)]. Invariant: every key at which the views
   differ is recorded. Every mutation goes through this module, and
   each records its key after applying it, so the invariant holds by
   construction. Keys whose views agree again (a commit caught up, an
   undo rolled back) are dropped by [compact]. *)

type t = {
  name : string;
  volatile_state : State.t;
  durable_state : State.t;
  mutable inos : Update.ino array;
  mutable n_inos : int;
  mutable dirs : Update.ino array;
  mutable names : string array;
  mutable n_dentries : int;
  mutable compact_at : int;
}

(* The record is compacted once it holds [compact_floor] keys and twice
   as many as survived the previous compaction — the rule
   [Simkit.Engine] applies to cancelled timers. Each compaction checks
   every key once and runs after at least half its work in new records,
   so it is amortised O(1) per record, and the record never holds more
   than the floor or twice the records of keys that in-flight work
   holds apart. *)
let compact_floor = 64

let create ~name ~root =
  let volatile_state = State.create () and durable_state = State.create () in
  (match root with
  | Some ino ->
      State.add_root volatile_state ino;
      State.add_root durable_state ino
  | None -> ());
  {
    name;
    volatile_state;
    durable_state;
    inos = [||];
    n_inos = 0;
    dirs = [||];
    names = [||];
    n_dentries = 0;
    compact_at = compact_floor;
  }

let name t = t.name

(* The arrays start empty and small: a store that records little, such
   as one that only took bootstrap writes, allocates little. *)
let grow a n fill =
  let b = Array.make (max 8 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 n;
  b

(* Keep the keys whose views differ. *)
let compact t =
  let v = t.volatile_state and d = t.durable_state in
  let n = ref 0 in
  for i = 0 to t.n_inos - 1 do
    let ino = t.inos.(i) in
    if not (State.inode_agrees v d ino) then begin
      t.inos.(!n) <- ino;
      incr n
    end
  done;
  t.n_inos <- !n;
  let n = ref 0 in
  for i = 0 to t.n_dentries - 1 do
    let dir = t.dirs.(i) and name = t.names.(i) in
    if not (State.dentry_agrees v d ~dir ~name) then begin
      t.dirs.(!n) <- dir;
      t.names.(!n) <- name;
      incr n
    end
  done;
  Array.fill t.names !n (t.n_dentries - !n) "";
  t.n_dentries <- !n;
  t.compact_at <- max compact_floor (2 * (t.n_inos + t.n_dentries))

let record_ino t ino =
  let n = t.n_inos in
  if n = Array.length t.inos then t.inos <- grow t.inos n 0;
  t.inos.(n) <- ino;
  t.n_inos <- n + 1

let record_dentry t dir name =
  let n = t.n_dentries in
  if n = Array.length t.dirs then begin
    t.dirs <- grow t.dirs n 0;
    t.names <- grow t.names n ""
  end;
  t.dirs.(n) <- dir;
  t.names.(n) <- name;
  t.n_dentries <- n + 1

(* Called after [u] has been applied, so a compaction here sees its
   effect and cannot drop a key it just made differ. *)
let record t (u : Update.t) =
  (match u with
  | Create_inode { ino; _ } | Ref { ino } | Unref { ino } -> record_ino t ino
  | Link { dir; name; _ } | Unlink { dir; name } -> record_dentry t dir name
  | Touch _ -> ());
  if t.n_inos + t.n_dentries >= t.compact_at then compact t

let apply_exn t state u =
  ignore (State.apply_exn state u);
  record t u

let apply_volatile t u =
  match State.apply t.volatile_state u with
  | Ok _ as ok ->
      record t u;
      ok
  | Error _ as e -> e

let undo_volatile t inverses = List.iter (apply_exn t t.volatile_state) inverses
let commit_durable t updates = List.iter (apply_exn t t.durable_state) updates

let replay_durable_to_volatile t updates =
  List.iter (apply_exn t t.volatile_state) updates

let apply_both t u =
  apply_exn t t.volatile_state u;
  apply_exn t t.durable_state u

(* Inode keys first: they put back or remove a directory's dentry table,
   which the dentry keys then fill. *)
let crash t =
  let v = t.volatile_state and d = t.durable_state in
  for i = 0 to t.n_inos - 1 do
    State.restore_inode v ~from:d t.inos.(i)
  done;
  for i = 0 to t.n_dentries - 1 do
    State.restore_dentry v ~from:d ~dir:t.dirs.(i) ~name:t.names.(i)
  done;
  Array.fill t.names 0 t.n_dentries "";
  t.n_inos <- 0;
  t.n_dentries <- 0;
  t.compact_at <- compact_floor

let volatile t = t.volatile_state
let durable t = t.durable_state

let in_sync t = State.equal t.volatile_state t.durable_state
