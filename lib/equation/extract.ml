module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton

type heuristic = First | Prefer_self_loops

(* Moore extraction is a safety game: a CSF state is *viable* when some
   output v̂ exists such that, for every input u, the (unique) transition
   under (u, v̂) leads to a viable state. The viable set is a greatest
   fixpoint; choosing any admissible v̂ inside it can never get stuck. The
   particular solution (the latch bank) is Moore, so for a latch-split CSF
   the initial state is always viable. *)
let viable_outputs (p : Problem.t) (csf : A.t) =
  let man = p.Problem.man in
  (* [admissible] holds fresh guard ids across further allocation *)
  M.with_frozen man @@ fun () ->
  let u_vars = Problem.x_input_vars p in
  let u_cube = O.cube_of_vars man u_vars in
  let n = A.num_states csf in
  let alive = Array.make n true in
  let admissible = Array.make n M.zero in
  let compute s =
    let covered =
      O.disj man
        (List.filter_map
           (fun (g, d) -> if alive.(d) then Some g else None)
           csf.A.edges.(s))
    in
    O.forall man u_cube covered
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      if alive.(s) then begin
        let adm = compute s in
        admissible.(s) <- adm;
        if adm = M.zero then begin
          alive.(s) <- false;
          changed := true
        end
      end
    done
  done;
  (alive, admissible)

let moore_sub_solution ?(heuristic = First) (p : Problem.t) (csf : A.t) =
  let man = p.Problem.man in
  (* the admissible sets and chosen output cubes live in plain arrays
     until [Machine.make] pins the survivors *)
  M.with_frozen man @@ fun () ->
  if A.num_states csf = 0 || A.is_empty_language csf then None
  else begin
    let u_vars = Problem.x_input_vars p in
    let v_vars = List.sort compare p.Problem.v_vars in
    let u_cube = O.cube_of_vars man u_vars in
    let alive, admissible = viable_outputs p csf in
    if not alive.(csf.A.initial) then None
    else begin
      let choose s =
        let v_ok = admissible.(s) in
        let pool =
          match heuristic with
          | First -> v_ok
          | Prefer_self_loops ->
            let self =
              O.disj man
                (List.filter_map
                   (fun (g, d) -> if d = s then Some g else None)
                   csf.A.edges.(s))
            in
            let with_self = O.band man v_ok (O.exists man u_cube self) in
            if with_self <> M.zero then with_self else v_ok
        in
        match O.pick_minterm man pool v_vars with
        | Some lits -> O.cube_of_literals man lits
        | None -> assert false (* alive ⇒ admissible ≠ 0 *)
      in
      let index = Hashtbl.create 16 in
      let rev = ref [] in
      let count = ref 0 in
      let queue = Queue.create () in
      let intern s =
        match Hashtbl.find_opt index s with
        | Some k -> k
        | None ->
          let k = !count in
          incr count;
          Hashtbl.replace index s k;
          rev := s :: !rev;
          Queue.add s queue;
          k
      in
      let initial = intern csf.A.initial in
      let outputs_acc = ref [] and next_acc = ref [] in
      while not (Queue.is_empty queue) do
        let s = Queue.pop queue in
        let v_hat = choose s in
        let edges =
          List.filter_map
            (fun (g, d) ->
              let gu = O.cofactor_cube man g v_hat in
              if gu = M.zero then None
              else begin
                (* admissible choices only lead to alive states *)
                assert alive.(d);
                Some (gu, intern d)
              end)
            csf.A.edges.(s)
        in
        outputs_acc := (s, v_hat) :: !outputs_acc;
        next_acc := (s, edges) :: !next_acc
      done;
      let n = !count in
      let outputs = Array.make n M.zero in
      let next = Array.make n [] in
      List.iter
        (fun (s, v_hat) -> outputs.(Hashtbl.find index s) <- v_hat)
        !outputs_acc;
      List.iter
        (fun (s, edges) -> next.(Hashtbl.find index s) <- edges)
        !next_acc;
      Some (Machine.make man ~u_vars ~v_vars ~initial ~outputs ~next)
    end
  end

let resynthesize ?heuristic p csf =
  match moore_sub_solution ?heuristic p csf with
  | None -> None
  | Some m ->
    let m = Machine.minimize m in
    Some (Machine.to_netlist m, m)
