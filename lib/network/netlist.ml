type net = int

type element =
  | Input
  | Node of { fanins : net array; fn : Expr.t }
  | Latch of { mutable input : net; init : bool }

type t = {
  name : string;
  drivers : element array;
  net_names : string array;
  inputs : net list;
  outputs : (string * net) list;
  latches : net list;
}

type builder = {
  bname : string;
  mutable elems : element list;  (* reversed *)
  mutable bnames : string list;  (* reversed *)
  mutable count : int;
  mutable binputs : net list;    (* reversed *)
  mutable boutputs : (string * net) list;  (* reversed *)
  mutable blatches : net list;   (* reversed *)
}

let create name =
  { bname = name; elems = []; bnames = []; count = 0; binputs = [];
    boutputs = []; blatches = [] }

let fresh b elem name =
  let id = b.count in
  b.count <- id + 1;
  b.elems <- elem :: b.elems;
  b.bnames <- name :: b.bnames;
  id

let add_input b name =
  let id = fresh b Input name in
  b.binputs <- id :: b.binputs;
  id

(* a fanin must already exist, so net ids ascend in a topological order
   of the combinational part and it cannot have a cycle *)
let add_node b ?name fn fanins =
  Array.iter
    (fun f ->
      if f < 0 || f >= b.count then
        invalid_arg "Netlist.add_node: fanin not yet created")
    fanins;
  let name = match name with Some s -> s | None -> Printf.sprintf "n%d" b.count in
  fresh b (Node { fanins; fn }) name

let add_latch b ?name ~init () =
  let name = match name with Some s -> s | None -> Printf.sprintf "l%d" b.count in
  let id = fresh b (Latch { input = -1; init }) name in
  b.blatches <- id :: b.blatches;
  id

let set_latch_input b latch data =
  let not_a_latch () = invalid_arg "Netlist.set_latch_input: not a latch net" in
  if latch < 0 || latch >= b.count then not_a_latch ();
  (* [elems] is newest first: net [latch] is [count - 1 - latch] deep *)
  match List.nth b.elems (b.count - 1 - latch) with
  | Latch l -> l.input <- data
  | Input | Node _ -> not_a_latch ()

let add_output b name net = b.boutputs <- (name, net) :: b.boutputs

let freeze b =
  let drivers = Array.of_list (List.rev b.elems) in
  let net_names = Array.of_list (List.rev b.bnames) in
  let n = Array.length drivers in
  (* validation: latch inputs connected and in range ([add_node] has
     checked the fanins) *)
  Array.iteri
    (fun id elem ->
      match elem with
      | Latch { input; _ } when input < 0 || input >= n ->
        invalid_arg
          (Printf.sprintf "Netlist.freeze: latch %s disconnected"
             net_names.(id))
      | Input | Latch _ | Node _ -> ())
    drivers;
  { name = b.bname; drivers; net_names;
    inputs = List.rev b.binputs;
    outputs = List.rev b.boutputs;
    latches = List.rev b.blatches }

let net_name t id = t.net_names.(id)
let num_inputs t = List.length t.inputs
let num_outputs t = List.length t.outputs
let num_latches t = List.length t.latches

let num_nodes t =
  Array.fold_left
    (fun acc e -> match e with Node _ -> acc + 1 | Input | Latch _ -> acc)
    0 t.drivers

let iter_topo f t =
  for id = 0 to Array.length t.drivers - 1 do f id done

let latch_init t id =
  match t.drivers.(id) with
  | Latch { init; _ } -> init
  | Input | Node _ -> invalid_arg "Netlist.latch_init: not a latch"

let latch_input t id =
  match t.drivers.(id) with
  | Latch { input; _ } -> input
  | Input | Node _ -> invalid_arg "Netlist.latch_input: not a latch"

type state = bool array

let initial_state t =
  Array.of_list (List.map (latch_init t) t.latches)

(* Evaluate every net once, returning the value array: the inputs and the
   state are written by position (PI order, latch order), then the nodes
   are evaluated in id order. *)
let eval_all t (st : state) inputs =
  let values = Array.make (Array.length t.drivers) false in
  List.iteri (fun k id -> values.(id) <- inputs.(k)) t.inputs;
  List.iteri (fun k id -> values.(id) <- st.(k)) t.latches;
  iter_topo
    (fun id ->
      match t.drivers.(id) with
      | Input | Latch _ -> ()
      | Node { fanins; fn } ->
        values.(id) <- Expr.eval (fun k -> values.(fanins.(k))) fn)
    t;
  values

let step t st inputs =
  let values = eval_all t st inputs in
  let outputs = Array.of_list (List.map (fun (_, id) -> values.(id)) t.outputs) in
  let next =
    Array.of_list (List.map (fun id -> values.(latch_input t id)) t.latches)
  in
  (outputs, next)

let reachable_states t =
  let ni = num_inputs t in
  if ni > 16 then
    invalid_arg "Netlist.reachable_states: too many inputs to enumerate";
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let init = initial_state t in
  Hashtbl.replace seen init ();
  Queue.add init queue;
  let order = ref [ init ] in
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    for bits = 0 to (1 lsl ni) - 1 do
      let inputs = Array.init ni (fun k -> bits land (1 lsl k) <> 0) in
      let _, st' = step t st inputs in
      if not (Hashtbl.mem seen st') then begin
        if Hashtbl.length seen >= 1 lsl 20 then
          invalid_arg "Netlist.reachable_states: limit exceeded";
        Hashtbl.replace seen st' ();
        Queue.add st' queue;
        order := st' :: !order
      end
    done
  done;
  List.rev !order

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d inputs, %d outputs, %d latches, %d nodes"
    t.name (num_inputs t) (num_outputs t) (num_latches t) (num_nodes t)
