module R = Equation.Runtime

let c_passes = Obs.Counter.make "csf.passes"

(* iterated full sweeps over a materialized automaton:
   O(passes × states × arcs), with as many passes as the longest deletion
   chain *)
let csf_sweep ?runtime (p : Equation.Problem.t) x =
  Option.iter (fun rt -> R.enter_phase rt R.Csf) runtime;
  let tick = R.ticker runtime in
  let on_pass () =
    if !Obs.on then Obs.Counter.bump c_passes;
    tick ()
  in
  tick ();
  let closed = Ops.prefix_close x in
  tick ();
  Ops.progressive ~on_pass closed
    ~inputs:(Equation.Problem.x_input_vars p)
