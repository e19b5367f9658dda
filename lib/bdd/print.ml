module M = Manager

let pp_cube m fmt lits =
  match lits with
  | [] -> Format.pp_print_string fmt "true"
  | _ ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " & ")
      (fun fmt (v, pos) ->
        Format.fprintf fmt "%s%s" (if pos then "" else "!") (M.var_name m v))
      fmt lits

let pp m fmt f =
  if f = M.zero then Format.pp_print_string fmt "false"
  else if f = M.one then Format.pp_print_string fmt "true"
  else begin
    let first = ref true in
    Cube.iter_cubes m f (fun c ->
        if !first then first := false
        else Format.pp_print_string fmt " | ";
        pp_cube m fmt c)
  end

let to_string m f = Format.asprintf "%a" (pp m) f
