module M = Bdd.Manager
module A = Automaton

let to_string ?(name = "automaton") (t : A.t) =
  let man = t.man in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".aut %s\n" name;
  pr ".alphabet%s\n"
    (String.concat ""
       (List.map (fun v -> " " ^ M.var_name man v) t.alphabet));
  let n = A.num_states t in
  (* state names may contain anything; emit canonical safe names and keep
     the originals as a comment *)
  let sname s = Printf.sprintf "s%d" s in
  pr ".states%s\n" (String.concat "" (List.init n (fun s -> " " ^ sname s)));
  List.iteri
    (fun s label -> pr "# %s = %s\n" (sname s) label)
    (Array.to_list t.names);
  pr ".initial %s\n" (sname t.initial);
  let accepting =
    List.filteri (fun s _ -> t.accepting.(s)) (List.init n Fun.id)
  in
  pr ".accepting%s\n"
    (String.concat "" (List.map (fun s -> " " ^ sname s) accepting));
  pr ".trans\n";
  let rows = Bdd.Isop.cover_rows man ~columns:t.alphabet in
  for s = 0 to n - 1 do
    List.iter
      (fun (g, d) ->
        List.iter (fun row -> pr "%s %s %s\n" row (sname s) (sname d)) (rows g))
      t.edges.(s)
  done;
  pr ".end\n";
  Buffer.contents buf
