module M = Manager
module O = Ops

(* Minato–Morreale: recursively split on the top variable; minterms of the
   lower bound that cannot be covered by a cube missing the literal are
   covered with it, the rest is delegated to the literal-free part. Returns
   both the cover and its BDD. [cover] starts it on the interval [f, f]. *)
let isop_with_bdd m lower upper =
  (* the memo holds unpinned intermediate BDD ids: run frozen *)
  M.with_frozen m @@ fun () ->
  let memo = Hashtbl.create 64 in
  let rec go lower upper =
    if lower = M.zero then ([], M.zero)
    else if upper = M.one then ([ [] ], M.one)
    else
      match Hashtbl.find_opt memo (lower, upper) with
      | Some r -> r
      | None ->
        let v = min (M.var m lower) (M.var m upper) in
        let cof f b =
          if (not (M.is_const f)) && M.var m f = v then
            if b then M.high m f else M.low m f
          else f
        in
        let l0 = cof lower false and l1 = cof lower true in
        let u0 = cof upper false and u1 = cof upper true in
        (* cubes that must contain ¬v / v *)
        let c0, f0 = go (O.bdiff m l0 u1) u0 in
        let c1, f1 = go (O.bdiff m l1 u0) u1 in
        (* what is still uncovered can use cubes without the v literal *)
        let rest_l =
          O.bor m (O.bdiff m l0 f0) (O.bdiff m l1 f1)
        in
        let cx, fx = go rest_l (O.band m u0 u1) in
        let cover =
          List.map (fun c -> (v, false) :: c) c0
          @ List.map (fun c -> (v, true) :: c) c1
          @ cx
        in
        let f =
          O.bor m fx
            (O.bor m
               (O.band m (O.nvar_bdd m v) f0)
               (O.band m (O.var_bdd m v) f1))
        in
        let r = (cover, f) in
        Hashtbl.add memo (lower, upper) r;
        r
  in
  go lower upper

let cover m f = fst (isop_with_bdd m f f)

let cover_rows m ~columns =
  let width = List.length columns in
  let col = Hashtbl.create width in
  List.iteri (fun k v -> Hashtbl.replace col v k) columns;
  fun f ->
    List.map
      (fun cube ->
        let row = Bytes.make width '-' in
        List.iter
          (fun (v, pos) ->
            Bytes.set row (Hashtbl.find col v) (if pos then '1' else '0'))
          cube;
        Bytes.to_string row)
      (cover m f)
