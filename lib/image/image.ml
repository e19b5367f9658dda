type strategy = Monolithic | Partitioned of Quantify.order

let image man ~strategy rels ~quantify =
  match strategy with
  | Monolithic -> Quantify.monolithic_and_exists man rels ~quantify
  | Partitioned order -> Quantify.and_exists_list man ~order rels ~quantify

let describe = function
  | Monolithic -> "mono-image"
  | Partitioned Quantify.Given -> "given"
  | Partitioned Quantify.Greedy -> "greedy"
