module M = Bdd.Manager
module O = Bdd.Ops

(* the private memo holds intermediate ids the collector cannot see, so
   the whole traversal runs frozen (allocation grows the store instead) *)
let subst m f lookup =
  M.with_frozen m @@ fun () ->
  let memo = Hashtbl.create 64 in
  let rec go f =
    if M.is_const f then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let lo = go (M.low m f) in
        let hi = go (M.high m f) in
        let v = M.var m f in
        let guard =
          match lookup v with Some g -> g | None -> O.var_bdd m v
        in
        let r = O.ite m guard hi lo in
        Hashtbl.add memo f r;
        r
  in
  go f

(* the rename the library had before its per-problem variable map and
   its reusable memo: a Hashtbl map and a Hashtbl memo per call *)
let rename m f pairs =
  M.with_frozen m @@ fun () ->
  let map = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.replace map a b) pairs;
  let image v = match Hashtbl.find_opt map v with Some b -> b | None -> v in
  let supp = O.support m f in
  let images = List.map image supp in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | [ _ ] | [] -> true
  in
  if monotone images then begin
    (* order-preserving on the support: direct O(|f|) rebuild *)
    let memo = Hashtbl.create 64 in
    let rec go f =
      if M.is_const f then f
      else
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
          let r =
            M.mk m (image (M.var m f)) (go (M.low m f)) (go (M.high m f))
          in
          Hashtbl.add memo f r;
          r
    in
    go f
  end
  else
    subst m f (fun v ->
        match Hashtbl.find_opt map v with
        | Some b -> Some (O.var_bdd m b)
        | None -> None)
