module M = Bdd.Manager
module O = Bdd.Ops
module A = Automaton

let restrict (t : A.t) keep =
  if not keep.(t.initial) then
    invalid_arg "Ops.restrict: initial state not kept";
  let n = A.num_states t in
  let index = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if keep.(s) then begin
      index.(s) <- !count;
      incr count
    end
  done;
  let accepting = Array.make !count false in
  let edges = Array.make !count [] in
  let names = Array.make !count "" in
  let rec kept = function
    | [] -> []
    | ((g, d) as arc) :: rest ->
      if not keep.(d) then kept rest
      else if index.(d) = d then arc :: kept rest
      else (g, index.(d)) :: kept rest
  in
  for s = 0 to n - 1 do
    if keep.(s) then begin
      let s' = index.(s) in
      accepting.(s') <- t.accepting.(s);
      names.(s') <- t.names.(s);
      edges.(s') <- kept t.edges.(s)
    end
  done;
  { t with initial = index.(t.initial); accepting; edges; names }

let trim (t : A.t) =
  let seen = Array.make (A.num_states t) false in
  let rec go s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter (fun (_, d) -> go d) t.edges.(s)
    end
  in
  go t.initial;
  restrict t seen

(* Operations below that create fresh guards run frozen (they hold guard
   ids in plain lists and tables while still allocating) and pin the
   result's guards before returning, so a later collection cannot sweep
   them out from under the automaton. *)
let normalize_edges (t : A.t) =
  M.with_frozen t.man @@ fun () ->
  let merge outgoing =
    let by_dest = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (g, d) ->
        match Hashtbl.find_opt by_dest d with
        | Some g0 -> Hashtbl.replace by_dest d (O.bor t.man g0 g)
        | None ->
          Hashtbl.replace by_dest d g;
          order := d :: !order)
      outgoing;
    List.rev_map (fun d -> (Hashtbl.find by_dest d, d)) !order
  in
  A.pin { t with edges = Array.map merge t.edges }

let complete (t : A.t) =
  M.with_frozen t.man @@ fun () ->
  let n = A.num_states t in
  let undefined = Array.init n (fun s -> O.bnot t.man (A.defined_guard t s)) in
  if Array.for_all (fun u -> u = M.zero) undefined then t
  else begin
    let sink = n in
    let accepting = Array.append t.accepting [| false |] in
    let names = Array.append t.names [| "DC" |] in
    let edges =
      Array.append
        (Array.mapi
           (fun s outgoing ->
             if undefined.(s) = M.zero then outgoing
             else (undefined.(s), sink) :: outgoing)
           t.edges)
        [| [ (M.one, sink) ] |]
    in
    A.pin { t with accepting; edges; names }
  end
