module M = Bdd.Manager
module O = Bdd.Ops

type state = int

type t = {
  man : Bdd.Manager.t;
  alphabet : int list;
  initial : state;
  accepting : bool array;
  edges : (int * state) list array;
  names : string array;
}

let num_states t = Array.length t.accepting
let state_name t s = t.names.(s)

(* Pin every guard against garbage collection: automata outlive the
   constructions that build them (solver phases run between constructing a
   CSF and consuming it, and may collect in between), so guards are
   protected for the manager's lifetime. A guard shared by several
   automata is pinned once per automaton, which is harmless. *)
let pin t =
  Array.iter (List.iter (fun (g, _) -> M.protect t.man g)) t.edges;
  t

let make man ~alphabet ~initial ~accepting ~edges ?names () =
  let n = Array.length accepting in
  if Array.length edges <> n then
    invalid_arg "Automaton.make: edges/accepting length mismatch";
  if initial < 0 || initial >= n then
    invalid_arg "Automaton.make: initial state out of range";
  let alphabet = List.sort_uniq compare alphabet in
  let in_alphabet =
    let set = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace set v ()) alphabet;
    fun v -> Hashtbl.mem set v
  in
  Array.iter
    (List.iter (fun (guard, dest) ->
         if dest < 0 || dest >= n then
           invalid_arg "Automaton.make: destination out of range";
         if guard = M.zero then
           invalid_arg "Automaton.make: zero guard";
         if not (List.for_all in_alphabet (O.support man guard)) then
           invalid_arg "Automaton.make: guard escapes the alphabet"))
    edges;
  let names =
    match names with
    | Some a ->
      if Array.length a <> n then
        invalid_arg "Automaton.make: names length mismatch";
      a
    | None -> Array.init n (fun s -> Printf.sprintf "s%d" s)
  in
  pin { man; alphabet; initial; accepting; edges; names }

let defined_guard t s =
  O.disj t.man (List.map fst t.edges.(s))

let is_deterministic t =
  let m = t.man in
  let rec disjoint = function
    | [] -> true
    | (g, _) :: rest ->
      List.for_all (fun (h, _) -> O.band m g h = M.zero) rest
      && disjoint rest
  in
  Array.for_all disjoint t.edges

let is_complete t =
  let n = num_states t in
  let rec go s = s >= n || (defined_guard t s = M.one && go (s + 1)) in
  go 0

let empty man ~alphabet =
  { man;
    alphabet = List.sort_uniq compare alphabet;
    initial = 0;
    accepting = [| false |];
    edges = [| [] |];
    names = [| "empty" |] }

let reachable_mask t =
  let n = num_states t in
  let seen = Array.make n false in
  let rec go s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter (fun (_, d) -> go d) t.edges.(s)
    end
  in
  go t.initial;
  seen

let is_empty_language t =
  let seen = reachable_mask t in
  not
    (Array.exists (fun x -> x)
       (Array.mapi (fun s r -> r && t.accepting.(s)) seen))
