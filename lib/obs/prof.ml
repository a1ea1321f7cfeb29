(* Host profiler: per-(subsystem, label) CPU self-time and minor-heap
   allocation, measured around each engine dispatch via
   {!Simkit.Engine.set_dispatch_observer}. Purely host-side — it
   schedules nothing, reads no simulated clock into simulation state and
   consumes no randomness, so a profiled run replays the exact event
   sequence of an unprofiled one (the golden suite pins this).

   Buckets are indexed by {!Simkit.Label.id} into a flat growable array:
   the dispatch path does two counter reads, integer arithmetic and a
   handful of mutable stores — no string work, no hashing, no
   allocation. Gc.minor_words is tracked as an [int] (not the float the
   stdlib returns) so the accumulator stores cannot themselves allocate
   boxed floats and pollute the numbers they measure. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

type slot = {
  s_label : Simkit.Label.t;
  mutable s_dispatches : int;
  mutable s_cpu_ns : int;
  mutable s_minor_words : int;
  mutable s_max_cpu_ns : int;
}

type t = {
  enabled : bool;
  mutable slots : slot option array;
  (* stamps taken by the pre-dispatch hook *)
  mutable cur_ns : int;
  mutable cur_minor : int;
  (* run window, stamped at [attach] *)
  mutable t0_ns : int;
  mutable minor0 : int;
  mutable attached : bool;
}

let make enabled =
  {
    enabled;
    slots = [||];
    cur_ns = 0;
    cur_minor = 0;
    t0_ns = 0;
    minor0 = 0;
    attached = false;
  }

let create () = make true
let disabled () = make false
let is_recording t = t.enabled

let slot t label =
  let id = Simkit.Label.id label in
  if id >= Array.length t.slots then begin
    let bigger =
      Array.make (max (Simkit.Label.count ()) (id + 1)) None
    in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end;
  match t.slots.(id) with
  | Some s -> s
  | None ->
      let s =
        {
          s_label = label;
          s_dispatches = 0;
          s_cpu_ns = 0;
          s_minor_words = 0;
          s_max_cpu_ns = 0;
        }
      in
      t.slots.(id) <- Some s;
      s

let attach t engine =
  if t.enabled then begin
    if t.attached then invalid_arg "Obs.Prof.attach: already attached";
    t.attached <- true;
    Simkit.Engine.set_dispatch_observer engine
      ~before:(fun () ->
        t.cur_ns <- now_ns ();
        t.cur_minor <- minor_words ())
      ~after:(fun label ->
        let stop_ns = now_ns () in
        let stop_minor = minor_words () in
        let s = slot t label in
        let d_ns = stop_ns - t.cur_ns in
        s.s_dispatches <- s.s_dispatches + 1;
        s.s_cpu_ns <- s.s_cpu_ns + d_ns;
        s.s_minor_words <- s.s_minor_words + (stop_minor - t.cur_minor);
        if d_ns > s.s_max_cpu_ns then s.s_max_cpu_ns <- d_ns);
    t.t0_ns <- now_ns ();
    t.minor0 <- minor_words ()
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type bucket = {
  subsystem : string;
  label : string;
  dispatches : int;
  cpu_ns : int;
  minor_words : int;
  max_cpu_ns : int;
}

type report = {
  total_cpu_ns : int;
  total_minor_words : int;
  total_dispatches : int;
  buckets : bucket list;
  residual_cpu_ns : int;
  residual_minor_words : int;
}

(* Capture the end-of-window stamps first so the report's own work does
   not leak into the window it describes. Buckets sum sub-intervals of
   [t0, t1], so the residual — heap sifts, the dispatch loop, observer
   overhead, everything between callbacks — is exact by construction:
   total = sum(buckets) + residual, tolerance zero. *)
let report t =
  if not t.enabled then invalid_arg "Obs.Prof.report: profiler disabled";
  if not t.attached then invalid_arg "Obs.Prof.report: never attached";
  let t1_ns = now_ns () in
  let minor1 = minor_words () in
  let buckets =
    Array.to_list t.slots
    |> List.filter_map (fun s -> s)
    |> List.map (fun s ->
           {
             subsystem =
               Simkit.Label.subsystem_name (Simkit.Label.subsystem s.s_label);
             label = Simkit.Label.name s.s_label;
             dispatches = s.s_dispatches;
             cpu_ns = s.s_cpu_ns;
             minor_words = s.s_minor_words;
             max_cpu_ns = s.s_max_cpu_ns;
           })
    |> List.sort (fun a b ->
           let c = compare b.cpu_ns a.cpu_ns in
           if c <> 0 then c
           else compare (a.subsystem, a.label) (b.subsystem, b.label))
  in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 buckets in
  let total_cpu_ns = t1_ns - t.t0_ns in
  let total_minor_words = minor1 - t.minor0 in
  {
    total_cpu_ns;
    total_minor_words;
    total_dispatches = sum (fun b -> b.dispatches);
    buckets;
    residual_cpu_ns = total_cpu_ns - sum (fun b -> b.cpu_ns);
    residual_minor_words = total_minor_words - sum (fun b -> b.minor_words);
  }

let residual_subsystem = "engine"
let residual_label = "(residual)"

(* Per-subsystem rollup, the residual attributed to the engine itself —
   the shares bench check compares across baselines. Sorted by cpu
   descending, same tie-break as buckets. *)
let by_subsystem r =
  let tbl = Hashtbl.create 8 in
  let add name cpu minor =
    let c, m = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (c + cpu, m + minor)
  in
  List.iter (fun b -> add b.subsystem b.cpu_ns b.minor_words) r.buckets;
  add residual_subsystem r.residual_cpu_ns r.residual_minor_words;
  Hashtbl.fold (fun name (cpu, minor) acc -> (name, cpu, minor) :: acc) tbl []
  |> List.sort (fun (an, ac, _) (bn, bc, _) ->
         let c = compare bc ac in
         if c <> 0 then c else compare an bn)

(* ------------------------------------------------------------------ *)
(* Text table                                                          *)
(* ------------------------------------------------------------------ *)

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let to_table ?(top = 15) r =
  let table =
    Metrics.Table.create
      ~columns:
        [
          "subsystem"; "label"; "dispatches"; "cpu ms"; "cpu %"; "minor Mw";
          "max us";
        ]
  in
  let row ~subsystem ~label ~dispatches ~cpu_ns ~minor_words ~max_cpu_ns =
    Metrics.Table.add_row table
      [
        subsystem;
        label;
        (if dispatches < 0 then "-" else string_of_int dispatches);
        Printf.sprintf "%.2f" (float_of_int cpu_ns /. 1e6);
        Printf.sprintf "%.1f" (pct cpu_ns r.total_cpu_ns);
        Printf.sprintf "%.3f" (float_of_int minor_words /. 1e6);
        (if max_cpu_ns < 0 then "-"
         else Printf.sprintf "%.1f" (float_of_int max_cpu_ns /. 1e3));
      ]
  in
  let shown = List.filteri (fun i _ -> i < top) r.buckets in
  List.iter
    (fun b ->
      row ~subsystem:b.subsystem ~label:b.label ~dispatches:b.dispatches
        ~cpu_ns:b.cpu_ns ~minor_words:b.minor_words ~max_cpu_ns:b.max_cpu_ns)
    shown;
  let rest = List.filteri (fun i _ -> i >= top) r.buckets in
  if rest <> [] then
    row
      ~subsystem:(Printf.sprintf "(%d more)" (List.length rest))
      ~label:"..."
      ~dispatches:(List.fold_left (fun a b -> a + b.dispatches) 0 rest)
      ~cpu_ns:(List.fold_left (fun a b -> a + b.cpu_ns) 0 rest)
      ~minor_words:(List.fold_left (fun a b -> a + b.minor_words) 0 rest)
      ~max_cpu_ns:(-1);
  Metrics.Table.add_separator table;
  row ~subsystem:residual_subsystem ~label:residual_label ~dispatches:(-1)
    ~cpu_ns:r.residual_cpu_ns ~minor_words:r.residual_minor_words
    ~max_cpu_ns:(-1);
  row ~subsystem:"total" ~label:"" ~dispatches:r.total_dispatches
    ~cpu_ns:r.total_cpu_ns ~minor_words:r.total_minor_words ~max_cpu_ns:(-1);
  table

(* ------------------------------------------------------------------ *)
(* Speedscope                                                          *)
(* ------------------------------------------------------------------ *)

(* The "sampled" speedscope flavor: one two-frame stack
   [subsystem; subsystem/label] per bucket, weighted by self cpu_ns, plus
   a single engine/(residual) stack — so the rendered flame graph's root
   width is exactly [total_cpu_ns] and collapsing by the first frame
   gives the per-subsystem split. *)
let speedscope_json ~name r =
  let frames = ref [] and n_frames = ref 0 in
  let frame label =
    frames := label :: !frames;
    incr n_frames;
    !n_frames - 1
  in
  let sub_frames = Hashtbl.create 8 in
  let sub_frame s =
    match Hashtbl.find_opt sub_frames s with
    | Some i -> i
    | None ->
        let i = frame s in
        Hashtbl.add sub_frames s i;
        i
  in
  let stacks =
    List.map
      (fun b ->
        let s = sub_frame b.subsystem in
        let l = frame (b.subsystem ^ "/" ^ b.label) in
        ([ s; l ], b.cpu_ns))
      r.buckets
    @ [
        ( [ sub_frame residual_subsystem;
            frame (residual_subsystem ^ "/" ^ residual_label) ],
          r.residual_cpu_ns );
      ]
  in
  let ints xs = Json.List (List.map (fun x -> Json.Int x) xs) in
  Json.Obj
    [
      ("$schema", Json.Str "https://www.speedscope.app/file-format-schema.json");
      ( "shared",
        Json.Obj
          [
            ( "frames",
              Json.List
                (List.rev_map
                   (fun label -> Json.Obj [ ("name", Json.Str label) ])
                   !frames) );
          ] );
      ( "profiles",
        Json.List
          [
            Json.Obj
              [
                ("type", Json.Str "sampled");
                ("name", Json.Str name);
                ("unit", Json.Str "nanoseconds");
                ("startValue", Json.Int 0);
                ("endValue", Json.Int r.total_cpu_ns);
                ("samples", Json.List (List.map (fun (st, _) -> ints st) stacks));
                ("weights", ints (List.map snd stacks));
              ];
          ] );
    ]

let speedscope_to_file ~path ~name r =
  Json.to_file path (speedscope_json ~name r)
