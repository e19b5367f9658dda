module M = Bdd.Manager
module O = Bdd.Ops

let c_calls = Obs.Counter.make "subset.split_calls"
let c_arcs = Obs.Counter.make "subset.arcs"
let c_memo_hits = Obs.Counter.make "subset.split_memo_hits"

let describe_symbol man lits =
  String.concat " "
    (List.map
       (fun (v, b) ->
         Printf.sprintf "%s=%d" (M.var_name man v) (if b then 1 else 0))
       lits)

(* [alphabet] as the caller gave it, for the error message; [sorted]
   ascending without duplicates, the order [O.pick_cube] builds in *)
let split_successors ?runtime man ~p ~domain ~alphabet ~sorted ~ns_cube =
  if !Obs.on then Obs.Counter.bump c_calls;
  let tick = Runtime.ticker runtime in
  (* the loop below holds [domain] and the accumulated arcs in OCaml
     locals across further allocation: run it frozen *)
  M.with_frozen man @@ fun () ->
  let rec go domain acc =
    if domain = M.zero then acc
    else begin
      tick ();
      let symbol = O.pick_cube man domain sorted in
      let successor = O.cofactor_cube man p symbol in
      (* all symbols whose successor set is exactly [successor] *)
      let differs = O.exists man ns_cube (O.bxor man p successor) in
      let guard = O.bdiff man domain differs in
      if guard = M.zero then
        invalid_arg
          (Printf.sprintf
             "Subset.split_successors: empty guard for symbol [%s] — the \
              relation is not constant on its own symbol class (an alphabet \
              variable likely also occurs in the next-state cube, or the \
              alphabet does not cover the domain's support)"
             (describe_symbol man
                (Option.get (O.pick_minterm man domain alphabet))));
      if !Obs.on then Obs.Counter.bump c_arcs;
      go (O.bdiff man domain guard) ((guard, successor) :: acc)
    end
  in
  go domain []

(* Distinct subset states often induce the same successor relation [P_ζ]
   (canonical BDDs make the coincidence detectable by id equality), so
   the engine memoizes the enumeration on the canonical id of [p]. The
   table lives in the closure, so it serves one manager and one [ns_cube]
   only. The manager may collect during the construction, so the memo
   keys and the arcs are added to [roots]: a swept-and-reused id would
   otherwise alias a different function on a later hit. *)
let memo_splitter ?runtime man ~roots ~alphabet ~ns_cube =
  let sorted = List.sort_uniq Int.compare alphabet in
  (* a list no split returns, physically *)
  let absent = [ (-1, -1) ] in
  let memo = Bdd.Idtbl.create 16 absent in
  fun ~domain p ->
    let arcs = Bdd.Idtbl.find memo p in
    if arcs != absent then begin
      if !Obs.on then begin
        Obs.Counter.bump c_calls;
        Obs.Counter.bump c_memo_hits
      end;
      arcs
    end
    else begin
      let arcs =
        split_successors ?runtime man ~p ~domain ~alphabet ~sorted ~ns_cube
      in
      ignore (M.Roots.add roots p : int);
      List.iter
        (fun (guard, successor) ->
          ignore (M.Roots.add roots guard : int);
          ignore (M.Roots.add roots successor : int))
        arcs;
      Bdd.Idtbl.replace memo p arcs;
      arcs
    end
