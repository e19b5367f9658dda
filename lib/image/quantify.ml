module M = Bdd.Manager
module O = Bdd.Ops

type order = Given | Greedy

let c_conj = Obs.Counter.make "image.conjunctions"
let g_peak_intermediate = Obs.Gauge.make "image.peak_intermediate"

(* [∃ quantify. ∧ rels] with early quantification: a variable is quantified
   at the first step after which no unprocessed conjunct mentions it. [occ]
   tracks, per quantifiable variable, how many unprocessed conjuncts use
   it. *)
let and_exists_list m ?(order = Greedy) rels ~quantify =
  let qset = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace qset v ()) quantify;
  let quantifiable v = Hashtbl.mem qset v in
  let parts = Array.of_list rels in
  (* pin the conjuncts for the whole sweep; the accumulator is re-pinned
     step by step so each dead intermediate becomes collectable as soon as
     the next one replaces it — that rotation is where the GC recovers the
     image computation's peak *)
  Array.iter (M.stack_push m) parts;
  let supports = Array.map (O.support m) parts in
  let used = Array.make (Array.length parts) false in
  let occ = Hashtbl.create 16 in
  let bump v d =
    Hashtbl.replace occ v (d + Option.value ~default:0 (Hashtbl.find_opt occ v))
  in
  Array.iter
    (fun supp -> List.iter (fun v -> if quantifiable v then bump v 1) supp)
    supports;
  let acc = ref M.one in
  let acc_supp = ref [] in
  let score k =
    let dead = ref 0 and fresh = ref 0 in
    List.iter
      (fun v ->
        if quantifiable v && Hashtbl.find occ v = 1 then incr dead;
        if not (List.mem v !acc_supp) then incr fresh)
      supports.(k);
    (2 * !dead) - !fresh
  in
  let pick () =
    let best = ref (-1) in
    (match order with
     | Given ->
       (try
          for k = 0 to Array.length parts - 1 do
            if not used.(k) then begin
              best := k;
              raise Exit
            end
          done
        with Exit -> ())
     | Greedy ->
       let best_score = ref min_int in
       for k = 0 to Array.length parts - 1 do
         if not used.(k) then begin
           let s = score k in
           if s > !best_score then begin
             best_score := s;
             best := k
           end
         end
       done);
    !best
  in
  let finally () =
    M.stack_drop m (Array.length parts);
    if not (M.is_const !acc) then M.release m !acc
  in
  Fun.protect ~finally @@ fun () ->
  let steps = Array.length parts in
  for _ = 1 to steps do
    let k = pick () in
    used.(k) <- true;
    List.iter (fun v -> if quantifiable v then bump v (-1)) supports.(k);
    let dying =
      List.filter
        (fun v -> quantifiable v && Hashtbl.find occ v = 0)
        (List.sort_uniq compare (supports.(k) @ !acc_supp))
    in
    let cube = O.cube_of_vars m dying in
    M.stack_push m cube;
    let acc' = O.and_exists m cube !acc parts.(k) in
    M.stack_drop m 1;
    if not (M.is_const acc') then M.protect m acc';
    if not (M.is_const !acc) then M.release m !acc;
    acc := acc';
    if !Obs.on then begin
      Obs.Counter.bump c_conj;
      Obs.Gauge.set_max g_peak_intermediate (O.size m !acc)
    end;
    (* A quantified variable is gone from the accumulator; forget it so it
       is not considered "dying" again. *)
    List.iter (fun v -> Hashtbl.remove qset v) dying;
    acc_supp := O.support m !acc
  done;
  !acc

let monolithic_and_exists m rels ~quantify =
  List.iter (M.stack_push m) rels;
  let product = O.conj m rels in
  M.stack_push m product;
  if !Obs.on then begin
    Obs.Counter.add c_conj (max 0 (List.length rels - 1));
    Obs.Gauge.set_max g_peak_intermediate (O.size m product)
  end;
  let cube = O.cube_of_vars m quantify in
  M.stack_push m cube;
  let r = O.exists m cube product in
  M.stack_drop m (List.length rels + 2);
  r
