let to_kiss2 (t : Machine.t) =
  let man = t.Machine.man in
  let nu = List.length t.Machine.u_vars in
  let cover = Bdd.Isop.cover_rows man ~columns:t.Machine.u_vars in
  let rows = ref [] in
  Array.iteri
    (fun s outgoing ->
      let out_bits =
        String.concat ""
          (List.map (fun b -> if b then "1" else "0") (Machine.output_bits t s))
      in
      List.iter
        (fun (g, d) ->
          List.iter
            (fun row ->
              rows := Printf.sprintf "%s s%d s%d %s" row s d out_bits :: !rows)
            (cover g))
        outgoing)
    t.Machine.next;
  let rows = List.rev !rows in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".i %d\n" nu;
  pr ".o %d\n" (List.length t.Machine.v_vars);
  pr ".p %d\n" (List.length rows);
  pr ".s %d\n" (Machine.num_states t);
  pr ".r s%d\n" t.Machine.initial;
  List.iter (fun r -> pr "%s\n" r) rows;
  pr ".e\n";
  Buffer.contents buf
