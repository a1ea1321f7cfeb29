type t = {
  mutable clock : Time.t;
  (* Inline 4-ary min-heap of pending events, ordered by (at, seq). The
     hot loop compares the two int fields directly — no comparator
     closure, no [option] boxing on pop. Slots beyond [qlen] keep stale
     handles until overwritten; they are unreachable through the API. *)
  mutable q : handle array;
  mutable qlen : int;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable cancelled_in_queue : int;
  (* Clock-advance observer: called with the target time just before the
     clock moves forward, so passive samplers can materialize readings at
     intermediate instants without ever scheduling events of their own.
     [has_observer] keeps the common (unobserved) path to one load and a
     conditional branch. *)
  mutable has_observer : bool;
  mutable observer : Time.t -> unit;
  (* Dispatch observer pair: [before_dispatch] runs just before an event's
     callback, [after_dispatch] just after (also on the exception path),
     receiving the event's label. Same passivity contract and same
     one-load-one-branch disabled cost as the clock observer; used by the
     host profiler ({!Obs.Prof}) to stamp clocks around each callback. *)
  mutable has_dispatch_observer : bool;
  mutable before_dispatch : unit -> unit;
  mutable after_dispatch : Label.t -> unit;
  (* Dispatch tap: a second, independent hook called with (at, label)
     just before each event's callback runs. Separate from the observer
     pair so a flight recorder ({!Obs.Recorder}) can ride along with the
     profiler — each slot holds at most one client. Same passivity
     contract and same one-load-one-branch disabled cost. *)
  mutable has_dispatch_tap : bool;
  mutable dispatch_tap : Time.t -> Label.t -> unit;
  (* High-water mark of [qlen] (raw heap occupancy, cancelled tombstones
     included) since creation or the last [reset_pending_high_water]. *)
  mutable qlen_hwm : int;
}

and handle = {
  owner : t;
  at : Time.t;
  seq : int;
  label : Label.t;
  callback : unit -> unit;
  mutable state : state;
}

and state = Pending | Cancelled | Done

exception Event_failure of string * exn

(* Events order by (timestamp, sequence number): FIFO among equal
   timestamps, hence full determinism. [seq] is unique, so this is a
   strict total order and the heap's pop sequence is independent of the
   heap's internal layout. *)
let before a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c < 0 else a.seq < b.seq

let create () =
  {
    clock = Time.zero;
    q = [||];
    qlen = 0;
    next_seq = 0;
    dispatched = 0;
    cancelled_in_queue = 0;
    has_observer = false;
    observer = (fun _ -> ());
    has_dispatch_observer = false;
    before_dispatch = (fun () -> ());
    after_dispatch = (fun _ -> ());
    has_dispatch_tap = false;
    dispatch_tap = (fun _ _ -> ());
    qlen_hwm = 0;
  }

let now t = t.clock

let set_clock_observer t f =
  t.has_observer <- true;
  t.observer <- f

let set_dispatch_observer t ~before ~after =
  t.has_dispatch_observer <- true;
  t.before_dispatch <- before;
  t.after_dispatch <- after

let set_dispatch_tap t f =
  t.has_dispatch_tap <- true;
  t.dispatch_tap <- f

(* Every clock advance funnels through here so the observer sees each
   forward move exactly once, before state at the new instant runs. *)
let advance_clock t at =
  if t.has_observer && Time.( > ) at t.clock then t.observer at;
  t.clock <- at

(* The backing array is allocated lazily on the first push so that
   [create] needs no witness element. *)
let ensure_capacity t h =
  if t.qlen = Array.length t.q then
    if t.qlen = 0 then t.q <- Array.make 256 h
    else begin
      let bigger = Array.make (2 * t.qlen) t.q.(0) in
      Array.blit t.q 0 bigger 0 t.qlen;
      t.q <- bigger
    end

(* Hole-based sift: move parents down into the hole and write the new
   element once, instead of repeated swaps. *)
let heap_push t h =
  ensure_capacity t h;
  let q = t.q in
  let i = ref t.qlen in
  t.qlen <- t.qlen + 1;
  if t.qlen > t.qlen_hwm then t.qlen_hwm <- t.qlen;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let p = q.(parent) in
    if before h p then begin
      q.(!i) <- p;
      i := parent
    end
    else stop := true
  done;
  q.(!i) <- h

(* Remove and return the minimum. Caller guarantees [qlen > 0]. *)
let heap_pop t =
  let q = t.q in
  let top = q.(0) in
  let n = t.qlen - 1 in
  t.qlen <- n;
  if n > 0 then begin
    let last = q.(n) in
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      let child = (4 * !i) + 1 in
      if child >= n then stop := true
      else begin
        let m = ref child in
        let hi = if child + 4 < n then child + 4 else n in
        for c = child + 1 to hi - 1 do
          if before q.(c) q.(!m) then m := c
        done;
        if before q.(!m) last then begin
          q.(!i) <- q.(!m);
          i := !m
        end
        else stop := true
      end
    done;
    q.(!i) <- last
  end;
  top

let enqueue t ~at ~label callback =
  let h = { owner = t; at; seq = t.next_seq; label; callback; state = Pending } in
  t.next_seq <- t.next_seq + 1;
  heap_push t h;
  h

let schedule t ?(label = Label.event) ~after f =
  enqueue t ~at:(Time.add t.clock after) ~label f

let schedule_at t ?(label = Label.event) ~at f =
  if Time.( < ) at t.clock then
    invalid_arg "Engine.schedule_at: time in the past";
  enqueue t ~at ~label f

let defer t ?(label = Label.deferred) f = enqueue t ~at:t.clock ~label f

let cancel h =
  if h.state = Pending then begin
    h.state <- Cancelled;
    h.owner.cancelled_in_queue <- h.owner.cancelled_in_queue + 1
  end

let is_pending h = h.state = Pending

let pending t = t.qlen - t.cancelled_in_queue
let dispatched t = t.dispatched
let pending_high_water t = t.qlen_hwm
let reset_pending_high_water t = t.qlen_hwm <- t.qlen

(* Discard tombstones left by [cancel] from the top of the heap. *)
let drop_cancelled t =
  while t.qlen > 0 && t.q.(0).state == Cancelled do
    ignore (heap_pop t);
    t.cancelled_in_queue <- t.cancelled_in_queue - 1
  done

let dispatch t h =
  advance_clock t h.at;
  h.state <- Done;
  t.dispatched <- t.dispatched + 1;
  (* Tapped before the callback runs, so on a crash the recorder's last
     entry is the event that was executing. *)
  if t.has_dispatch_tap then t.dispatch_tap h.at h.label;
  if t.has_dispatch_observer then begin
    t.before_dispatch ();
    (try h.callback ()
     with exn ->
       t.after_dispatch h.label;
       raise (Event_failure (Label.name h.label, exn)));
    t.after_dispatch h.label
  end
  else
    try h.callback ()
    with exn -> raise (Event_failure (Label.name h.label, exn))

let step t =
  drop_cancelled t;
  if t.qlen = 0 then false
  else begin
    dispatch t (heap_pop t);
    true
  end

type outcome = Drained | Reached_limit | Reached_until

let run ?until ?max_events t =
  let budget = ref (match max_events with None -> -1 | Some n -> n) in
  let rec loop () =
    if !budget = 0 then Reached_limit
    else begin
      drop_cancelled t;
      if t.qlen = 0 then Drained
      else
        let h = t.q.(0) in
        match until with
        | Some stop when Time.( > ) h.at stop ->
            advance_clock t stop;
            Reached_until
        | _ ->
            ignore (heap_pop t);
            dispatch t h;
            if !budget > 0 then decr budget;
            loop ()
    end
  in
  let outcome = loop () in
  (match (outcome, until) with
  | Drained, Some stop when Time.( < ) t.clock stop -> advance_clock t stop
  | _ -> ());
  outcome
