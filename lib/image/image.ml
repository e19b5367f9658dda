type strategy = Partitioned of Quantify.order

let image man ~strategy:(Partitioned order) rels ~quantify =
  Quantify.and_exists_list man ~order rels ~quantify

(* the renaming is built when the first five arguments are given, once
   for every frontier of a fixpoint *)
let forward man ~strategy ~parts ~quantify ~rename =
  let to_current = Bdd.Ops.renaming man rename in
  fun frontier ->
    let img = image man ~strategy (frontier :: parts) ~quantify in
    Bdd.Manager.stack_push man img;
    let renamed = Bdd.Ops.rename_by man img to_current in
    Bdd.Manager.stack_drop man 1;
    renamed
