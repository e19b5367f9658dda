module M = Bdd.Manager
module O = Bdd.Ops

(* the kernel's own cells: [make] returns the registered one *)
let c_conj = Obs.Counter.make "image.conjunctions"
let g_peak_intermediate = Obs.Gauge.make "image.peak_intermediate"

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
