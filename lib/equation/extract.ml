module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton

let moore_sub_solution (p : Problem.t) (csf : A.t) =
  let man = p.Problem.man in
  (* the admissible sets and chosen output cubes live in plain arrays
     until [Machine.make] pins the survivors *)
  M.with_frozen man @@ fun () ->
  let n = A.num_states csf in
  if n = 0 || A.is_empty_language csf then None
  else begin
    let u_vars = Problem.x_input_vars p in
    let v_vars = List.sort Int.compare p.Problem.v_vars in
    let u_cube = O.cube_of_vars man u_vars in
    (* Moore extraction is a safety game: a CSF state is *viable* when
       some output v̂ exists such that, for every input u, the (unique)
       transition under (u, v̂) leads to a viable state. The viable set is
       a greatest fixpoint, pruned on the CSF's worklist; choosing any
       admissible v̂ inside it can never get stuck. The particular
       solution (the latch bank) is Moore, so for a latch-split CSF the
       initial state is always viable. *)
    let alive = Array.make n true in
    let admissible = Array.make n M.zero in
    Csf.prune csf alive (fun s d ->
        admissible.(s) <- O.forall man u_cube d;
        admissible.(s) <> M.zero);
    if not alive.(csf.A.initial) then None
    else begin
      (* every state takes the first minterm of its admissible outputs *)
      let choose s =
        match O.pick_minterm man admissible.(s) v_vars with
        | Some lits -> O.cube_of_literals man lits
        | None -> assert false (* alive ⇒ admissible ≠ 0 *)
      in
      (* machine state [k] is CSF state [state.(k)], numbered in discovery
         order; [index] maps back, -1 for a state not reached yet *)
      let index = Array.make n (-1) in
      let state = Array.make n 0 in
      let count = ref 0 in
      let intern s =
        if index.(s) < 0 then begin
          index.(s) <- !count;
          state.(!count) <- s;
          incr count
        end;
        index.(s)
      in
      let initial = intern csf.A.initial in
      let outputs = Array.make n M.zero in
      let next = Array.make n [] in
      (* breadth first: the machine states below [count] not expanded yet
         are the queue *)
      let k = ref 0 in
      while !k < !count do
        let s = state.(!k) in
        let v_hat = choose s in
        outputs.(!k) <- v_hat;
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
        next.(!k) <- edges;
        incr k
      done;
      Some
        (Machine.make man ~u_vars ~v_vars ~initial
           ~outputs:(Array.sub outputs 0 !count)
           ~next:(Array.sub next 0 !count))
    end
  end

let resynthesize p csf =
  match moore_sub_solution p csf with
  | None -> None
  | Some m ->
    let m = Machine.minimize m in
    Some (Machine.to_netlist m, m)
