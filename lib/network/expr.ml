type t =
  | Var of int
  | Const of bool
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Ite of t * t * t

let rec eval env = function
  | Var k -> env k
  | Const b -> b
  | Not e -> not (eval env e)
  | And (a, b) -> eval env a && eval env b
  | Or (a, b) -> eval env a || eval env b
  | Xor (a, b) -> eval env a <> eval env b
  | Ite (c, a, b) -> if eval env c then eval env a else eval env b

let to_bdd m env e =
  let module O = Bdd.Ops in
  let rec go = function
    | Var k -> env k
    | Const true -> Bdd.Manager.one
    | Const false -> Bdd.Manager.zero
    | Not e -> O.bnot m (go e)
    | And (a, b) -> O.band m (go a) (go b)
    | Or (a, b) -> O.bor m (go a) (go b)
    | Xor (a, b) -> O.bxor m (go a) (go b)
    | Ite (c, a, b) -> O.ite m (go c) (go a) (go b)
  in
  go e

let conj = function
  | [] -> Const true
  | e :: rest -> List.fold_left (fun acc e -> And (acc, e)) e rest

let disj = function
  | [] -> Const false
  | e :: rest -> List.fold_left (fun acc e -> Or (acc, e)) e rest

let of_cover ~ncols rows =
  let row_expr pattern =
    if String.length pattern <> ncols then
      invalid_arg "Expr.of_cover: row width mismatch";
    let lits = ref [] in
    String.iteri
      (fun k c ->
        match c with
        | '1' -> lits := Var k :: !lits
        | '0' -> lits := Not (Var k) :: !lits
        | '-' -> ()
        | _ -> invalid_arg "Expr.of_cover: bad pattern character")
      pattern;
    conj (List.rev !lits)
  in
  match rows with
  | [] -> Const false
  | (_, value) :: _ ->
    if not (List.for_all (fun (_, v) -> v = value) rows) then
      invalid_arg "Expr.of_cover: mixed output phases";
    let union = disj (List.map (fun (p, _) -> row_expr p) rows) in
    if value then union else Not union
