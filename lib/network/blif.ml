exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

type raw = {
  mutable model : string;
  mutable rinputs : string list;
  mutable routputs : string list;
  mutable rlatches : (string * string * bool) list; (* input, output, init *)
  mutable rnames : (string * string list * (string * bool) list) list;
      (* output, inputs, cover rows *)
}

(* Split the text into logical lines: strip comments, join continuations. *)
let logical_lines text =
  let physical = String.split_on_char '\n' text in
  let strip_comment s =
    match String.index_opt s '#' with
    | Some k -> String.sub s 0 k
    | None -> s
  in
  let rec join acc pending pending_line lineno = function
    | [] ->
      let acc =
        match pending with
        | Some s -> (pending_line, s) :: acc
        | None -> acc
      in
      List.rev acc
    | s :: rest ->
      let s = String.trim (strip_comment s) in
      let continued = String.length s > 0 && s.[String.length s - 1] = '\\' in
      let body = if continued then String.sub s 0 (String.length s - 1) else s in
      let merged, merged_line =
        match pending with
        | Some p -> (p ^ " " ^ body, pending_line)
        | None -> (body, lineno)
      in
      if continued then join acc (Some merged) merged_line (lineno + 1) rest
      else if String.trim merged = "" then join acc None 0 (lineno + 1) rest
      else join ((merged_line, merged) :: acc) None 0 (lineno + 1) rest
  in
  join [] None 0 1 physical

let tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_raw text =
  let raw =
    { model = "blif"; rinputs = []; routputs = []; rlatches = []; rnames = [] }
  in
  let lines = logical_lines text in
  let rec go = function
    | [] -> ()
    | (lineno, line) :: rest -> (
      match tokens line with
      | ".model" :: name :: _ -> raw.model <- name; go rest
      | ".inputs" :: sigs -> raw.rinputs <- raw.rinputs @ sigs; go rest
      | ".outputs" :: sigs -> raw.routputs <- raw.routputs @ sigs; go rest
      | ".latch" :: args ->
        let input, output, init =
          match args with
          | [ i; o ] -> (i, o, "0")
          | [ i; o; init ] -> (i, o, init)
          | [ i; o; _type; _ctrl; init ] -> (i, o, init)
          | _ -> fail lineno "malformed .latch"
        in
        let init_bool =
          match init with
          | "1" -> true
          | "0" | "2" | "3" -> false (* don't-care/unknown resets to 0 *)
          | _ -> fail lineno "bad latch init value"
        in
        raw.rlatches <- (input, output, init_bool) :: raw.rlatches;
        go rest
      | ".names" :: sigs ->
        let fanins, out =
          match List.rev sigs with
          | out :: rev_ins -> (List.rev rev_ins, out)
          | [] -> fail lineno "empty .names"
        in
        let is_cover_row (_, l) =
          String.length l > 0
          && l.[0] <> '.'
          && String.for_all
               (fun c -> c = '0' || c = '1' || c = '-' || c = ' ' || c = '\t')
               l
        in
        let rec take_rows acc = function
          | row :: rest' when is_cover_row row -> take_rows (row :: acc) rest'
          | rest' -> (List.rev acc, rest')
        in
        let rows, rest = take_rows [] rest in
        let parse_row (ln, l) =
          match tokens l with
          | [ pat; value ] when fanins <> [] ->
            let v =
              match value with
              | "1" -> true
              | "0" -> false
              | _ -> fail ln "bad cover output"
            in
            (pat, v)
          | [ value ] when fanins = [] ->
            let v =
              match value with
              | "1" -> true
              | "0" -> false
              | _ -> fail ln "bad constant cover"
            in
            ("", v)
          | _ -> fail ln "bad cover row"
        in
        raw.rnames <- (out, fanins, List.map parse_row rows) :: raw.rnames;
        go rest
      | ".end" :: _ -> ()
      | [ ".exdc" ] -> () (* ignore external don't-care section onwards *)
      | directive :: _ when String.length directive > 0 && directive.[0] = '.'
        ->
        (* unsupported directives (.clock, .wire_load, ...) are skipped *)
        go rest
      | _ -> fail lineno "unexpected line")
  in
  go lines;
  raw.rlatches <- List.rev raw.rlatches;
  raw.rnames <- List.rev raw.rnames;
  raw

let build_netlist raw =
  let b = Netlist.create raw.model in
  let env : (string, Netlist.net) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace env s (Netlist.add_input b s))
    raw.rinputs;
  List.iter
    (fun (_, out, init) ->
      Hashtbl.replace env out (Netlist.add_latch b ~name:out ~init ()))
    raw.rlatches;
  (* Order the .names blocks topologically (fanins may be defined later in
     the file). *)
  let defs = Hashtbl.create 64 in
  List.iter (fun (out, _, _ as d) -> Hashtbl.replace defs out d) raw.rnames;
  let placing = Hashtbl.create 64 in
  let rec place out =
    match Hashtbl.find_opt env out with
    | Some net -> net
    | None ->
      if Hashtbl.mem placing out then
        fail 0 (Printf.sprintf "combinational cycle through %s" out);
      (match Hashtbl.find_opt defs out with
       | None -> fail 0 (Printf.sprintf "undefined signal %s" out)
       | Some (_, fanins, rows) ->
         Hashtbl.replace placing out ();
         let fanin_nets = Array.of_list (List.map place fanins) in
         let fn = Expr.of_cover ~ncols:(List.length fanins) rows in
         let net = Netlist.add_node b ~name:out fn fanin_nets in
         Hashtbl.replace env out net;
         net)
  in
  List.iter (fun (out, _, _) -> ignore (place out : Netlist.net)) raw.rnames;
  List.iter
    (fun (input, out, _) ->
      Netlist.set_latch_input b (Hashtbl.find env out) (place input))
    raw.rlatches;
  List.iter (fun s -> Netlist.add_output b s (place s)) raw.routputs;
  Netlist.freeze b

let parse_string text = build_netlist (parse_raw text)

let to_string (t : Netlist.t) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".model %s\n" t.name;
  pr ".inputs%s\n"
    (String.concat ""
       (List.map (fun id -> " " ^ Netlist.net_name t id) t.inputs));
  pr ".outputs%s\n"
    (String.concat "" (List.map (fun (name, _) -> " " ^ name) t.outputs));
  List.iter
    (fun id ->
      pr ".latch %s %s %d\n"
        (Netlist.net_name t (Netlist.latch_input t id))
        (Netlist.net_name t id)
        (if Netlist.latch_init t id then 1 else 0))
    t.latches;
  Array.iteri
    (fun id elem ->
      match elem with
      | Netlist.Input | Netlist.Latch _ -> ()
      | Netlist.Node { fanins; fn } ->
        let k = Array.length fanins in
        pr ".names%s %s\n"
          (String.concat ""
             (Array.to_list
                (Array.map (fun f -> " " ^ Netlist.net_name t f) fanins)))
          (Netlist.net_name t id);
        if k = 0 then begin
          if Expr.eval (fun _ -> false) fn then pr "1\n"
        end
        else begin
          (* emit an irredundant SOP cover computed via a scratch BDD *)
          let man = Bdd.Manager.create () in
          let columns = Bdd.Manager.new_vars man k in
          let bdd = Expr.to_bdd man (fun j -> Bdd.Ops.var_bdd man j) fn in
          List.iter
            (fun row -> pr "%s 1\n" row)
            (Bdd.Isop.cover_rows man ~columns bdd)
        end)
    t.drivers;
  (* primary outputs driven directly by another named net need a buffer *)
  List.iter
    (fun (name, id) ->
      if name <> Netlist.net_name t id then
        pr ".names %s %s\n1 1\n" (Netlist.net_name t id) name)
    t.outputs;
  pr ".end\n";
  Buffer.contents buf
