module A = Automaton

let pp fmt (t : A.t) =
  let man = t.man in
  Format.fprintf fmt "@[<v>alphabet: %s@,"
    (String.concat ", "
       (List.map (Bdd.Manager.var_name man) t.alphabet));
  for s = 0 to A.num_states t - 1 do
    Format.fprintf fmt "%s%s%s:@,"
      (if s = t.initial then "-> " else "   ")
      (A.state_name t s)
      (if t.accepting.(s) then " *" else "");
    List.iter
      (fun (g, d) ->
        Format.fprintf fmt "     --[%a]--> %s@," (Bdd.Print.pp man) g
          (A.state_name t d))
      t.edges.(s)
  done;
  Format.fprintf fmt "@]"

let to_dot ?(name = "automaton") (t : A.t) =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph %s {\n  rankdir=LR;\n" name;
  pr "  init [shape=point];\n";
  for s = 0 to A.num_states t - 1 do
    pr "  s%d [shape=%s,label=\"%s\"];\n" s
      (if t.accepting.(s) then "doublecircle" else "circle")
      (String.map (fun c -> if c = '"' then '\'' else c) (A.state_name t s))
  done;
  pr "  init -> s%d;\n" t.initial;
  for s = 0 to A.num_states t - 1 do
    List.iter
      (fun (g, d) ->
        pr "  s%d -> s%d [label=\"%s\"];\n" s d
          (String.map
             (fun c -> if c = '"' then '\'' else c)
             (Bdd.Print.to_string t.man g)))
      t.edges.(s)
  done;
  pr "}\n";
  Buffer.contents buf

let summary (t : A.t) =
  let nedges = Array.fold_left (fun acc e -> acc + List.length e) 0 t.edges in
  Printf.sprintf "%d states, %d edges, %s, %s"
    (A.num_states t) nedges
    (if A.is_deterministic t then "deterministic" else "nondeterministic")
    (if A.is_complete t then "complete" else "incomplete")
