module M = Bdd.Manager
module O = Bdd.Ops
module A = Automaton

(* Signature of a state under the current partition: for each target class,
   the guard leading into it. Classes are numbered; BDD canonicity makes the
   signature comparable structurally. *)
let signature man succ class_of s =
  let by_class = Hashtbl.create 8 in
  List.iter
    (fun (g, d) ->
      let c = class_of.(d) in
      match Hashtbl.find_opt by_class c with
      | Some g0 -> Hashtbl.replace by_class c (O.bor man g0 g)
      | None -> Hashtbl.replace by_class c g)
    succ.(s);
  List.sort compare (Hashtbl.fold (fun c g acc -> (c, g) :: acc) by_class [])

let refine man ~seed succ =
  (* signatures hold merged guard ids in tables while still allocating *)
  M.with_frozen man @@ fun () ->
  let n = Array.length seed in
  let class_of = Array.copy seed in
  (* seed with the classes actually present: when the seed is uniform
     there is one class, not two, and a first pass splitting into exactly
     two must still count as a change *)
  let num_classes =
    let seen = Hashtbl.create 4 in
    Array.iter (fun c -> Hashtbl.replace seen c ()) class_of;
    ref (Hashtbl.length seen)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let table = Hashtbl.create 16 in
    let next = Array.make n 0 in
    let count = ref 0 in
    for s = 0 to n - 1 do
      let key = (class_of.(s), signature man succ class_of s) in
      let c =
        match Hashtbl.find_opt table key with
        | Some c -> c
        | None ->
          let c = !count in
          incr count;
          Hashtbl.replace table key c;
          c
      in
      next.(s) <- c
    done;
    if !count <> !num_classes then changed := true;
    num_classes := !count;
    Array.blit next 0 class_of 0 n
  done;
  let k = !num_classes in
  let rep = Array.make k (-1) in
  for s = n - 1 downto 0 do rep.(class_of.(s)) <- s done;
  let edges =
    Array.init k (fun c ->
        List.map (fun (cls, g) -> (g, cls)) (signature man succ class_of rep.(c)))
  in
  (class_of, rep, edges)

let minimize (t : A.t) =
  if not (A.is_deterministic t) then
    invalid_arg "Minimize.minimize: not deterministic";
  if not (A.is_complete t) then
    invalid_arg "Minimize.minimize: not complete";
  let t = Ops.trim t in
  let man = t.A.man in
  (* partition refinement seeded by acceptance, then the quotient with class
     representatives; the merged guards are unpinned until [A.make] pins
     them *)
  M.with_frozen man @@ fun () ->
  let seed = Array.map (fun a -> if a then 1 else 0) t.accepting in
  let class_of, rep, edges = refine man ~seed t.edges in
  let accepting = Array.map (fun s -> t.accepting.(s)) rep in
  let names = Array.map (A.state_name t) rep in
  A.make man ~alphabet:t.alphabet ~initial:class_of.(t.initial) ~accepting
    ~edges ~names ()
