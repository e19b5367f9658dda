(* Process-global observability state. Everything lives behind [on]: hot
   paths (Bdd.Manager.mk, cache probes) guard their counter bumps with a
   single [if !on] branch at the call site; the structured facilities
   (spans, trace, timers) check it internally. *)

let on = ref false

(* --- clock ------------------------------------------------------------- *)

(* Trace timestamps are relative to the last [reset] so snapshots are
   reproducible across runs. *)
let t0_wall = ref (Unix.gettimeofday ())

let now_wall () = Unix.gettimeofday () -. !t0_wall

let set_enabled b = on := b

(* --- JSON -------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_repr x =
    if not (Float.is_finite x) then "0"
    else
      let s = Printf.sprintf "%.9g" x in
      (* "%g" may print a bare integer, which is still valid JSON *)
      s

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float x -> Buffer.add_string buf (float_repr x)
    | String s -> escape buf s
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun k x ->
          if k > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun k (name, x) ->
          if k > 0 then Buffer.add_char buf ',';
          escape buf name;
          Buffer.add_char buf ':';
          emit buf x)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf
end

(* --- counters and gauges ----------------------------------------------- *)

type cell = { name : string; mutable v : int }

let sorted_cells tbl =
  List.sort compare (Hashtbl.fold (fun name c acc -> (name, c.v) :: acc) tbl [])

module Counter = struct
  type t = cell

  let registry : (string, cell) Hashtbl.t = Hashtbl.create 64

  let make name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = { name; v = 0 } in
      Hashtbl.replace registry name c;
      c

  let dummy = { name = ""; v = 0 }
  let bump c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n

  (* folds of tallies that hot paths keep outside the registry; run before
     every read and before [reset] *)
  let folds : (unit -> unit) list ref = ref []
  let on_read f = folds := f :: !folds
  let fold_pending () = List.iter (fun f -> f ()) !folds

  let find name =
    fold_pending ();
    match Hashtbl.find_opt registry name with Some c -> c.v | None -> 0

  let all () =
    fold_pending ();
    sorted_cells registry
end

module Gauge = struct
  type t = cell

  let registry : (string, cell) Hashtbl.t = Hashtbl.create 16

  let make name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = { name; v = 0 } in
      Hashtbl.replace registry name c;
      c

  let set_max c n = if n > c.v then c.v <- n
  let set c n = c.v <- n

  let find name =
    match Hashtbl.find_opt registry name with Some c -> c.v | None -> 0

  let all () = sorted_cells registry
end

(* --- timers ------------------------------------------------------------ *)

module Timer = struct
  type acc = { mutable wall : float; mutable cpu : float; mutable count : int }

  let registry : (string, acc) Hashtbl.t = Hashtbl.create 16

  let acc name =
    match Hashtbl.find_opt registry name with
    | Some a -> a
    | None ->
      let a = { wall = 0.0; cpu = 0.0; count = 0 } in
      Hashtbl.replace registry name a;
      a

  let add name ~wall ~cpu =
    if !on then begin
      let a = acc name in
      a.wall <- a.wall +. wall;
      a.cpu <- a.cpu +. cpu;
      a.count <- a.count + 1
    end

  let find name =
    Option.map
      (fun a -> (a.wall, a.cpu, a.count))
      (Hashtbl.find_opt registry name)

  let all () =
    List.sort compare
      (Hashtbl.fold
         (fun name a acc -> (name, (a.wall, a.cpu, a.count)) :: acc)
         registry [])

  let reset () =
    Hashtbl.iter
      (fun _ a ->
        a.wall <- 0.0;
        a.cpu <- 0.0;
        a.count <- 0)
      registry
end

(* --- trace ring buffer -------------------------------------------------- *)

(* Current span-nesting depth, maintained by [Span] and read by [Trace]
   (declared here to break the Trace <-> Span cycle). *)
let cur_depth = ref 0

module Trace = struct
  type kind = Enter | Exit | Point

  type event = {
    seq : int;
    wall : float;
    depth : int;
    kind : kind;
    name : string;
    detail : string;
    dur : float;
  }

  let none =
    { seq = -1; wall = 0.0; depth = 0; kind = Point; name = ""; detail = "";
      dur = 0.0 }

  let capacity = 4096
  let ring = Array.make capacity none
  let n_recorded = ref 0

  let record ~kind ~name ~detail ~dur =
    let e =
      { seq = !n_recorded; wall = now_wall (); depth = !cur_depth; kind; name;
        detail; dur }
    in
    incr n_recorded;
    ring.(e.seq mod capacity) <- e

  let point ?(detail = "") name =
    if !on then record ~kind:Point ~name ~detail ~dur:0.0

  (* the retained window, oldest first *)
  let events () =
    let n = !n_recorded in
    let first = max 0 (n - capacity) in
    List.init (n - first) (fun k -> ring.((first + k) mod capacity))

  let clear () = n_recorded := 0

  let kind_name = function
    | Enter -> "enter"
    | Exit -> "exit"
    | Point -> "point"

  let event_json e =
    let base =
      [ ("seq", Json.Int e.seq);
        ("t", Json.Float e.wall);
        ("depth", Json.Int e.depth);
        ("kind", Json.String (kind_name e.kind));
        ("name", Json.String e.name) ]
    in
    let base =
      if e.detail = "" then base
      else base @ [ ("detail", Json.String e.detail) ]
    in
    let base =
      match e.kind with
      | Exit -> base @ [ ("dur_s", Json.Float e.dur) ]
      | Enter | Point -> base
    in
    Json.Obj base

  let to_json () =
    let evs = events () in
    Json.to_string
      (Json.Obj
         [ ("recorded", Json.Int !n_recorded);
           ("capacity", Json.Int capacity);
           ("dropped", Json.Int (max 0 (!n_recorded - List.length evs)));
           ("events", Json.List (List.map event_json evs)) ])
end

(* --- spans -------------------------------------------------------------- *)

module Span = struct
  type frame = { id : int; name : string; wall0 : float; cpu0 : float }
  type t = int

  let stack : frame list ref = ref []
  let next_id = ref 0

  let enter name =
    if not !on then 0
    else begin
      incr next_id;
      let id = !next_id in
      Trace.record ~kind:Trace.Enter ~name ~detail:"" ~dur:0.0;
      stack :=
        { id; name; wall0 = Unix.gettimeofday (); cpu0 = Sys.time () } :: !stack;
      cur_depth := List.length !stack;
      id
    end

  let pop_one () =
    match !stack with
    | [] -> ()
    | f :: rest ->
      stack := rest;
      cur_depth := List.length !stack;
      let wall = Unix.gettimeofday () -. f.wall0 in
      let cpu = Sys.time () -. f.cpu0 in
      Timer.add f.name ~wall ~cpu;
      Trace.record ~kind:Trace.Exit ~name:f.name ~detail:"" ~dur:wall

  let exit id =
    if id <> 0 && List.exists (fun f -> f.id = id) !stack then begin
      (* unwind abandoned children, then the frame itself *)
      while
        match !stack with
        | f :: _ -> f.id <> id
        | [] -> false
      do
        pop_one ()
      done;
      pop_one ()
    end

  let with_ name f =
    let id = enter name in
    match f () with
    | r ->
      exit id;
      r
    | exception e ->
      exit id;
      raise e

  let reset () =
    stack := [];
    cur_depth := 0
end

(* --- OCaml heap traffic -------------------------------------------------- *)

(* minor words, major words, minor collections. In OCaml 5.1
   [Gc.quick_stat] updates its word counts only at collections, and
   [Gc.counters]'s minor count is off, so each figure comes from the
   reading that is exact. *)
let heap_now () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major, (Gc.quick_stat ()).Gc.minor_collections)

(* the reading at the last [reset] *)
let heap0 = ref (heap_now ())

let reset () =
  heap0 := heap_now ();
  (* folded first, so tallies pending at the reset are dropped too *)
  Counter.fold_pending ();
  Hashtbl.iter (fun _ c -> c.v <- 0) Counter.registry;
  Hashtbl.iter (fun _ c -> c.v <- 0) Gauge.registry;
  Timer.reset ();
  Trace.clear ();
  Span.reset ();
  t0_wall := Unix.gettimeofday ()

module Stats = struct
  let ratio num den =
    let n = Counter.find num and d = Counter.find den in
    if d = 0 then 0.0 else float_of_int n /. float_of_int d

  let heap_traffic () =
    let minor, major, collections = heap_now () in
    let minor0, major0, collections0 = !heap0 in
    Json.Obj
      [ ("ocaml.minor_words", Json.Int (int_of_float (minor -. minor0)));
        ("ocaml.major_words", Json.Int (int_of_float (major -. major0)));
        ("ocaml.minor_collections", Json.Int (collections - collections0)) ]

  let snapshot_json () =
    (* read first, so the snapshot's own allocation is not counted *)
    let ocaml = heap_traffic () in
    Json.Obj
      [ ("enabled", Json.Bool !on);
        ( "counters",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (Counter.all ()))
        );
        ( "gauges",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (Gauge.all ())) );
        ( "timers",
          Json.Obj
            (List.map
               (fun (n, (wall, cpu, count)) ->
                 ( n,
                   Json.Obj
                     [ ("wall_s", Json.Float wall);
                       ("cpu_s", Json.Float cpu);
                       ("count", Json.Int count) ] ))
               (Timer.all ())) );
        ( "derived",
          Json.Obj
            [ ( "bdd_cache_hit_rate",
                Json.Float (ratio "bdd.cache.hits" "bdd.cache.lookups") );
              ( "bdd_and_exists_hit_rate",
                Json.Float
                  (ratio "bdd.cache.hits.and_exists"
                     "bdd.cache.lookups.and_exists") );
              ( "bdd_unique_hit_rate",
                Json.Float (ratio "bdd.unique.hits" "bdd.mk_calls") );
              (* fraction of all allocated nodes that were later reclaimed
                 by the mark-and-sweep collector *)
              ( "bdd_dead_ratio",
                Json.Float (ratio "bdd.gc.nodes_swept" "bdd.nodes_created")
              ) ] );
        ( "trace",
          Json.Obj
            [ ("recorded", Json.Int !Trace.n_recorded);
              ("capacity", Json.Int Trace.capacity) ] );
        ("ocaml", ocaml) ]

  let snapshot () = Json.to_string (snapshot_json ())
end
