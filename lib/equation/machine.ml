module M = Bdd.Manager
module O = Bdd.Ops
module N = Network.Netlist
module E = Network.Expr

type t = {
  man : Bdd.Manager.t;
  u_vars : int list;
  v_vars : int list;
  initial : int;
  outputs : int array;
  next : (int * int) list array;
}

let num_states t = Array.length t.outputs

let is_total_v_cube man v_vars cube =
  cube <> M.zero
  && O.support man cube = List.sort compare v_vars
  && O.sat_count man cube (List.length v_vars) = 1.0

(* Machines outlive the construction that produced them: protect every BDD
   the record holds (output cubes and transition guards) so a later
   collection cannot sweep them. The pins last for the manager's
   lifetime — machines are few and small. *)
let pin t =
  Array.iter (M.protect t.man) t.outputs;
  Array.iter (List.iter (fun (g, _) -> M.protect t.man g)) t.next;
  t

let make man ~u_vars ~v_vars ~initial ~outputs ~next =
  (* the validation below allocates while [outputs]/[next] are unpinned *)
  M.with_frozen man @@ fun () ->
  let n = Array.length outputs in
  if Array.length next <> n then
    invalid_arg "Machine.make: outputs/next length mismatch";
  if initial < 0 || initial >= n then
    invalid_arg "Machine.make: initial out of range";
  Array.iter
    (fun cube ->
      if not (is_total_v_cube man v_vars cube) then
        invalid_arg "Machine.make: output is not a total v assignment")
    outputs;
  Array.iter
    (fun edges ->
      let rec disjoint = function
        | [] -> true
        | (g, _) :: rest ->
          List.for_all (fun (h, _) -> O.band man g h = M.zero) rest
          && disjoint rest
      in
      if not (disjoint edges) then
        invalid_arg "Machine.make: overlapping u guards";
      if O.disj man (List.map fst edges) <> M.one then
        invalid_arg "Machine.make: u guards do not cover the input space";
      List.iter
        (fun (_, d) ->
          if d < 0 || d >= n then
            invalid_arg "Machine.make: successor out of range")
        edges)
    next;
  pin { man; u_vars; v_vars; initial; outputs; next }

let to_automaton t =
  M.with_frozen t.man @@ fun () ->
  let edges =
    Array.mapi
      (fun s outgoing ->
        List.map (fun (g, d) -> (O.band t.man g t.outputs.(s), d)) outgoing)
      t.next
  in
  Fsa.Automaton.make t.man
    ~alphabet:(t.u_vars @ t.v_vars)
    ~initial:t.initial
    ~accepting:(Array.make (num_states t) true)
    ~edges ()

let step t s u_assign =
  let rec go = function
    | [] -> invalid_arg "Machine.step: guards do not cover this input"
    | (g, d) :: rest -> if O.eval t.man g u_assign then d else go rest
  in
  go t.next.(s)

(* decode the output cube into per-variable booleans via a minterm of the
   (total-assignment) cube *)
let output_bits t s =
  let lits =
    match O.pick_minterm t.man t.outputs.(s) (List.sort compare t.v_vars) with
    | Some lits -> lits
    | None -> invalid_arg "Machine.output_bits: empty output cube"
  in
  List.map (fun v -> List.assoc v lits) t.v_vars

let minimize t =
  (* the merged guards are unpinned until [pin] *)
  M.with_frozen t.man @@ fun () ->
  (* output cubes are canonical ids: equal outputs, equal seed *)
  let class_of, rep, next = Fsa.Minimize.refine t.man ~seed:t.outputs t.next in
  pin
    { t with
      initial = class_of.(t.initial);
      outputs = Array.map (fun s -> t.outputs.(s)) rep;
      next }

let bits_needed n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  max 1 (go 0)

let to_netlist t =
  let man = t.man in
  let n = num_states t in
  let bits = bits_needed n in
  let b = N.create "extracted_x" in
  let u_nets =
    List.map (fun v -> N.add_input b (M.var_name man v)) t.u_vars
  in
  let latches =
    List.init bits (fun j ->
        N.add_latch b
          ~name:(Printf.sprintf "st%d" j)
          ~init:(t.initial land (1 lsl j) <> 0)
          ())
  in
  let fanins = Array.of_list (u_nets @ latches) in
  let nu = List.length t.u_vars in
  let u_index =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun k v -> Hashtbl.replace tbl v k) t.u_vars;
    tbl
  in
  (* guard BDD over u -> expression over the fanin indices *)
  let expr_of_guard g =
    if g = M.one then E.Const true
    else
      E.disj
        (List.map
           (fun lits ->
             E.conj
               (List.map
                  (fun (v, pos) ->
                    let k = Hashtbl.find u_index v in
                    if pos then E.Var k else E.Not (E.Var k))
                  lits))
           (Bdd.Cube.cubes man g))
  in
  let state_cond s =
    E.conj
      (List.init bits (fun j ->
           if s land (1 lsl j) <> 0 then E.Var (nu + j)
           else E.Not (E.Var (nu + j))))
  in
  (* next-state bit j = OR over transitions into a state with bit j set *)
  let ns_exprs =
    List.init bits (fun j ->
        let terms = ref [] in
        Array.iteri
          (fun s outgoing ->
            List.iter
              (fun (g, d) ->
                if d land (1 lsl j) <> 0 then
                  terms := E.And (state_cond s, expr_of_guard g) :: !terms)
              outgoing)
          t.next;
        E.disj (List.rev !terms))
  in
  List.iteri
    (fun j latch ->
      let node =
        N.add_node b ~name:(Printf.sprintf "ns%d" j) (List.nth ns_exprs j)
          fanins
      in
      N.set_latch_input b latch node)
    latches;
  (* Moore outputs depend on the state bits only *)
  List.iteri
    (fun vk v ->
      let terms = ref [] in
      Array.iteri
        (fun s _ ->
          if List.nth (output_bits t s) vk then
            terms := state_cond s :: !terms)
        t.outputs;
      let node =
        N.add_node b ~name:("out_" ^ M.var_name man v)
          (E.disj (List.rev !terms))
          fanins
      in
      N.add_output b (M.var_name man v) node)
    t.v_vars;
  N.freeze b
