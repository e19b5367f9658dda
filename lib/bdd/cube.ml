module M = Manager

type literal = int * bool

let iter_cubes m f k =
  let rec go f acc =
    if f = M.one then k (List.rev acc)
    else if f <> M.zero then begin
      let v = M.var m f in
      go (M.low m f) ((v, false) :: acc);
      go (M.high m f) ((v, true) :: acc)
    end
  in
  go f []

let cubes m f =
  let acc = ref [] in
  iter_cubes m f (fun c -> acc := c :: !acc);
  List.rev !acc

let iter_minterms m f vars k =
  let rec go f vars acc =
    match vars with
    | [] -> if f = M.one then k (List.rev acc)
    | v :: rest ->
      if f <> M.zero then begin
        let lo, hi =
          if (not (M.is_const f)) && M.var m f = v then
            (M.low m f, M.high m f)
          else begin
            (* [vars] covers the support, so var f > v here. *)
            assert (M.is_const f || M.var m f > v);
            (f, f)
          end
        in
        go lo rest ((v, false) :: acc);
        go hi rest ((v, true) :: acc)
      end
  in
  go f (List.sort compare vars) []
