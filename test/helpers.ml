(* Shared test utilities: manager/environment builders, random BDD and
   netlist helpers, and common assertions. Linked into every test
   executable (the dune [tests] stanza compiles each sibling module into
   each runner, but only the runner's own suite executes). *)

module M = Bdd.Manager
module O = Bdd.Ops

let default_nvars = 5

(* a manager with [nvars] anonymous variables already allocated *)
let fresh_man ?(nvars = default_nvars) () =
  let m = M.create () in
  ignore (M.new_vars m nvars : int list);
  m

(* every assignment of [nvars] booleans, as environment functions *)
let all_envs ?(nvars = default_nvars) () =
  List.init (1 lsl nvars) (fun bits v -> bits land (1 lsl v) <> 0)

(* a small random BDD over vars [0, nvars): a depth-[depth] tree of
   and/or/xor over random literals *)
let random_bdd ?(depth = 3) man nvars rng =
  let rec go depth =
    if depth = 0 then
      let v = Random.State.int rng nvars in
      if Random.State.bool rng then O.var_bdd man v else O.nvar_bdd man v
    else
      match Random.State.int rng 3 with
      | 0 -> O.band man (go (depth - 1)) (go (depth - 1))
      | 1 -> O.bor man (go (depth - 1)) (go (depth - 1))
      | _ -> O.bxor man (go (depth - 1)) (go (depth - 1))
  in
  go depth

(* a manager with two named alphabet variables a (0) and b (1) — the
   standard fixture for hand-built automata *)
let alphabet_man () =
  let m = M.create () in
  let a = M.new_var ~name:"a" m in
  let b = M.new_var ~name:"b" m in
  (m, a, b)

(* simulate [steps] cycles of a netlist; returns the list of output
   vectors, with [input_fn k] supplying the cycle-[k] inputs *)
let sim_run net steps input_fn =
  let module N = Network.Netlist in
  let st = ref (N.initial_state net) in
  List.init steps (fun k ->
      let out, st' = N.step net !st (input_fn k) in
      st := st';
      out)

(* the CSF of the partitioned and the monolithic flow, extracted from the
   engine's solution automaton *)
let partitioned_csf ?strategy p =
  let x, _ = Equation.Partitioned.solve_arena ?strategy p in
  fst (Equation.Csf.of_arena p x)

let monolithic_csf p =
  let x, _ = Equation.Monolithic.solve_arena p in
  fst (Equation.Csf.of_arena p x)

(* split a netlist, solve with the partitioned flow, extract the CSF *)
let csf_of net x_latches =
  let sp, p = Equation.Split.problem net ~x_latches in
  (sp, p, partitioned_csf p)

(* assert that two roots (possibly in different managers over the same
   variable indices) denote the same Boolean function *)
let check_same_function ?(nvars = default_nvars) msg m1 f1 m2 f2 =
  List.iter
    (fun env ->
      Alcotest.(check bool) msg (O.eval m1 f1 env) (O.eval m2 f2 env))
    (all_envs ~nvars ())

(* run [f] with Obs on from a fresh window (every counter at zero), and
   off again afterwards *)
let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* collections since the last [Obs.reset], while Obs is on *)
let gc_runs () = Obs.Counter.find "bdd.gc.runs"

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* assert that a thunk raises [Invalid_argument] whose message contains
   [substring] *)
let check_invalid_arg msg substring f =
  match f () with
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")
  | exception Invalid_argument m ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: message %S mentions %S" msg m substring)
      true (contains substring m)
