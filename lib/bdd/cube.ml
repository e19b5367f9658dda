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
