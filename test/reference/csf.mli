(** The pre-worklist CSF extraction, kept as the differential oracle of
    {!Equation.Csf.of_arena} and as its complexity baseline. *)

val csf_sweep :
  ?runtime:Equation.Runtime.t ->
  Equation.Problem.t ->
  Fsa.Automaton.t ->
  Fsa.Automaton.t
(** {!Ops.prefix_close} followed by iterated {!Ops.progressive}
    sweeps, then a trim. It takes any automaton, including one built
    outside the engine such as the explicit Algorithm 1 oracle's
    ({!Generic.solve}). Language-equivalent to {!Equation.Csf.of_arena};
    bumps [csf.passes] per sweep. *)
