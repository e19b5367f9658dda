type strategy = Partitioned of Quantify.order

let image man ~strategy:(Partitioned order) rels ~quantify =
  Quantify.and_exists_list man ~order rels ~quantify

let forward man ~strategy ~parts ~quantify ~rename frontier =
  let img = image man ~strategy (frontier :: parts) ~quantify in
  Bdd.Manager.stack_push man img;
  let renamed = Bdd.Ops.rename man img rename in
  Bdd.Manager.stack_drop man 1;
  renamed
