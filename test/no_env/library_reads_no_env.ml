(* Run by this directory's dune rule with LESOLVE_FAULT=mk:1:4, a fault
   that fails all four rungs: counter:3 split at c1,c2 must still complete
   on partitioned/greedy, because [solve_split] injects only the fault it
   is given. *)

module S = Equation.Solve

let () =
  if Sys.getenv_opt "LESOLVE_FAULT" <> Some "mk:1:4" then begin
    prerr_endline "library_reads_no_env: run me with LESOLVE_FAULT=mk:1:4";
    exit 1
  end;
  let net = Circuits.Generators.counter 3 in
  match
    S.solve_split ~method_:S.default_partitioned net ~x_latches:[ "c1"; "c2" ]
  with
  | S.Completed { S.solved_by = "partitioned/greedy"; attempts = []; _ } -> ()
  | S.Completed r ->
    Printf.eprintf "library_reads_no_env: solved by %s after %d attempts\n"
      r.S.solved_by (List.length r.S.attempts);
    exit 1
  | S.Could_not_complete { reason; _ } ->
    Printf.eprintf
      "library_reads_no_env: could not complete (%s): the library injected \
       the environment's fault\n"
      reason;
    exit 1
