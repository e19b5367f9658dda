module N = Network.Netlist
module E = Network.Expr

(* generator parameters arrive from the command line: reject an
   out-of-range one with a message that names the family and its bound *)
let at_least family what lo n =
  if n < lo then
    invalid_arg
      (Printf.sprintf "%s: %s must be at least %d (got %d)" family what lo n)

let counter n =
  at_least "counter" "width" 1 n;
  let b = N.create (Printf.sprintf "counter%d" n) in
  let en = N.add_input b "en" in
  let latches =
    List.init n (fun k -> N.add_latch b ~name:(Printf.sprintf "c%d" k) ~init:false ())
  in
  (* carry chain: bit k toggles when en and all lower bits are 1 *)
  let toggles =
    List.mapi
      (fun k bit ->
        let lower = Array.of_list (en :: List.filteri (fun j _ -> j < k) latches) in
        let all_lower =
          E.conj (List.init (Array.length lower) (fun j -> E.Var j))
        in
        let fanins = Array.append lower [| bit |] in
        let toggle_expr =
          E.Xor (E.Var (Array.length fanins - 1), all_lower)
        in
        N.add_node b ~name:(Printf.sprintf "t%d" k) toggle_expr fanins)
      latches
  in
  List.iter2 (fun l t -> N.set_latch_input b l t) latches toggles;
  let carry_fanins = Array.of_list (en :: latches) in
  let carry =
    N.add_node b ~name:"carry"
      (E.conj (List.init (Array.length carry_fanins) (fun j -> E.Var j)))
      carry_fanins
  in
  N.add_output b "carry" carry;
  N.freeze b

let gray_counter n =
  at_least "gray" "width" 1 n;
  let b = N.create (Printf.sprintf "gray%d" n) in
  let en = N.add_input b "en" in
  let latches =
    List.init n (fun k -> N.add_latch b ~name:(Printf.sprintf "g%d" k) ~init:false ())
  in
  let toggles =
    List.mapi
      (fun k bit ->
        let lower = Array.of_list (en :: List.filteri (fun j _ -> j < k) latches) in
        let all_lower =
          E.conj (List.init (Array.length lower) (fun j -> E.Var j))
        in
        let fanins = Array.append lower [| bit |] in
        N.add_node b
          ~name:(Printf.sprintf "t%d" k)
          (E.Xor (E.Var (Array.length fanins - 1), all_lower))
          fanins)
      latches
  in
  List.iter2 (fun l t -> N.set_latch_input b l t) latches toggles;
  (* Gray outputs: o_k = b_k xor b_{k+1}; o_{n-1} = b_{n-1} *)
  let arr = Array.of_list latches in
  for k = 0 to n - 1 do
    let out =
      if k = n - 1 then
        N.add_node b ~name:(Printf.sprintf "o%d" k) (E.Var 0) [| arr.(k) |]
      else
        N.add_node b
          ~name:(Printf.sprintf "o%d" k)
          (E.Xor (E.Var 0, E.Var 1))
          [| arr.(k); arr.(k + 1) |]
    in
    N.add_output b (Printf.sprintf "gray%d" k) out
  done;
  N.freeze b

let shift_register n =
  at_least "shift" "length" 1 n;
  let b = N.create (Printf.sprintf "shift%d" n) in
  let sin = N.add_input b "sin" in
  let latches =
    List.init n (fun k -> N.add_latch b ~name:(Printf.sprintf "s%d" k) ~init:false ())
  in
  let arr = Array.of_list latches in
  List.iteri
    (fun k l -> N.set_latch_input b l (if k = 0 then sin else arr.(k - 1)))
    latches;
  N.add_output b "sout" arr.(n - 1);
  let parity =
    N.add_node b ~name:"parity"
      (List.fold_left (fun acc j -> E.Xor (acc, E.Var j)) (E.Var 0)
         (List.init (n - 1) (fun j -> j + 1)))
      arr
  in
  N.add_output b "parity" parity;
  N.freeze b

let pattern_detector pattern =
  let n = String.length pattern in
  at_least "detector" "pattern length" 1 n;
  String.iter
    (fun c ->
      if c <> '0' && c <> '1' then
        invalid_arg
          (Printf.sprintf "detector: pattern %S has a character other than 0/1"
             pattern))
    pattern;
  let b = N.create (Printf.sprintf "detect_%s" pattern) in
  let sin = N.add_input b "sin" in
  let latches =
    List.init n (fun k -> N.add_latch b ~name:(Printf.sprintf "w%d" k) ~init:false ())
  in
  let arr = Array.of_list latches in
  List.iteri
    (fun k l -> N.set_latch_input b l (if k = 0 then sin else arr.(k - 1)))
    latches;
  (* window w0 holds the newest bit: pattern.[n-1] matches w0 *)
  let match_expr =
    E.conj
      (List.init n (fun k ->
           if pattern.[n - 1 - k] = '1' then E.Var k else E.Not (E.Var k)))
  in
  let hit = N.add_node b ~name:"hit" match_expr arr in
  N.add_output b "hit" hit;
  N.freeze b

let lfsr n =
  at_least "lfsr" "width" 2 n;
  let taps = [ n - 1; n - 2 ] in
  let b = N.create (Printf.sprintf "lfsr%d" n) in
  let en = N.add_input b "en" in
  let latches =
    List.init n (fun k ->
        N.add_latch b ~name:(Printf.sprintf "r%d" k) ~init:(k = 0) ())
  in
  let arr = Array.of_list latches in
  let feedback_fanins = Array.of_list (List.map (fun t -> arr.(t)) taps) in
  let feedback =
    N.add_node b ~name:"fb"
      (List.fold_left
         (fun acc j -> E.Xor (acc, E.Var j))
         (E.Var 0)
         (List.init (Array.length feedback_fanins - 1) (fun j -> j + 1)))
      feedback_fanins
  in
  List.iteri
    (fun k l ->
      let src = if k = 0 then feedback else arr.(k - 1) in
      (* hold when not enabled *)
      let held =
        N.add_node b
          ~name:(Printf.sprintf "h%d" k)
          (E.Ite (E.Var 0, E.Var 1, E.Var 2))
          [| en; src; l |]
      in
      N.set_latch_input b l held)
    latches;
  N.add_output b "out" arr.(n - 1);
  N.freeze b

let johnson n =
  at_least "johnson" "length" 1 n;
  let b = N.create (Printf.sprintf "johnson%d" n) in
  let en = N.add_input b "en" in
  let latches =
    List.init n (fun k -> N.add_latch b ~name:(Printf.sprintf "j%d" k) ~init:false ())
  in
  let arr = Array.of_list latches in
  let twisted =
    N.add_node b ~name:"twist" (E.Not (E.Var 0)) [| arr.(n - 1) |]
  in
  List.iteri
    (fun k l ->
      let src = if k = 0 then twisted else arr.(k - 1) in
      let held =
        N.add_node b
          ~name:(Printf.sprintf "h%d" k)
          (E.Ite (E.Var 0, E.Var 1, E.Var 2))
          [| en; src; l |]
      in
      N.set_latch_input b l held)
    latches;
  N.add_output b "out" arr.(n - 1);
  N.freeze b

(* Highway/farm-road controller. States (s1 s0): 00 highway green,
   01 highway yellow, 10 farm green, 11 farm yellow. [car]: farm-road car
   present; [tl]: long-timer elapsed. Yellow phases always advance. *)
let traffic_light () =
  let b = N.create "traffic" in
  let car = N.add_input b "car" in
  let tl = N.add_input b "tl" in
  let s0 = N.add_latch b ~name:"s0" ~init:false () in
  let s1 = N.add_latch b ~name:"s1" ~init:false () in
  let fanins = [| s1; s0; car; tl |] in
  let v_s1 = E.Var 0 and v_s0 = E.Var 1 and v_car = E.Var 2 and v_tl = E.Var 3 in
  (* advance condition per state *)
  let adv =
    E.Ite
      ( v_s0,
        E.Const true, (* yellow phases always advance *)
        E.Ite (v_s1, E.Or (E.Not v_car, v_tl), E.And (v_car, v_tl)) )
  in
  (* two-bit state counter gated by adv *)
  let n0 = N.add_node b ~name:"n0" (E.Xor (v_s0, adv)) fanins in
  let n1 =
    N.add_node b ~name:"n1" (E.Xor (v_s1, E.And (v_s0, adv))) fanins
  in
  N.set_latch_input b s0 n0;
  N.set_latch_input b s1 n1;
  let hg =
    N.add_node b ~name:"hg" (E.And (E.Not v_s1, E.Not v_s0)) [| s1; s0 |]
  in
  let hy = N.add_node b ~name:"hy" (E.And (E.Not (E.Var 0), E.Var 1)) [| s1; s0 |] in
  let fg = N.add_node b ~name:"fg" (E.And (E.Var 0, E.Not (E.Var 1))) [| s1; s0 |] in
  let fy = N.add_node b ~name:"fy" (E.And (E.Var 0, E.Var 1)) [| s1; s0 |] in
  N.add_output b "hwy_green" hg;
  N.add_output b "hwy_yellow" hy;
  N.add_output b "farm_green" fg;
  N.add_output b "farm_yellow" fy;
  N.freeze b

let arbiter n =
  at_least "arbiter" "request count" 2 n;
  let b = N.create (Printf.sprintf "arbiter%d" n) in
  let reqs = List.init n (fun k -> N.add_input b (Printf.sprintf "req%d" k)) in
  let tokens =
    List.init n (fun k ->
        N.add_latch b ~name:(Printf.sprintf "tok%d" k) ~init:(k = 0) ())
  in
  let req_arr = Array.of_list reqs and tok_arr = Array.of_list tokens in
  (* grant_k = req_k & tok_k *)
  let grants =
    List.init n (fun k ->
        N.add_node b
          ~name:(Printf.sprintf "gnt%d" k)
          (E.And (E.Var 0, E.Var 1))
          [| req_arr.(k); tok_arr.(k) |])
  in
  (* the token advances when its holder is not requesting *)
  let hold_fanins = Array.append req_arr tok_arr in
  let holder_busy =
    E.disj
      (List.init n (fun k -> E.And (E.Var k, E.Var (n + k))))
  in
  let advance = N.add_node b ~name:"advance" (E.Not holder_busy) hold_fanins in
  List.iteri
    (fun k tok ->
      let prev = tok_arr.((k + n - 1) mod n) in
      let next =
        N.add_node b
          ~name:(Printf.sprintf "ntok%d" k)
          (E.Ite (E.Var 0, E.Var 1, E.Var 2))
          [| advance; prev; tok |]
      in
      N.set_latch_input b tok next)
    tokens;
  List.iteri (fun k g -> N.add_output b (Printf.sprintf "gnt%d" k) g) grants;
  N.freeze b

(* credit counted in nickels, saturating at 3 (= 15 cents) *)
let vending () =
  let b = N.create "vending" in
  let nickel = N.add_input b "nickel" in
  let dime = N.add_input b "dime" in
  let c0 = N.add_latch b ~name:"c0" ~init:false () in
  let c1 = N.add_latch b ~name:"c1" ~init:false () in
  let fanins = [| nickel; dime; c0; c1 |] in
  let v_n = E.Var 0 and v_d = E.Var 1 and v_c0 = E.Var 2 and v_c1 = E.Var 3 in
  (* credit' = min(3, credit + nickel + 2*dime); dispensing resets *)
  let full = E.And (v_c0, v_c1) in
  let add1 = E.And (v_n, E.Not v_d) in
  let add2 = E.And (v_d, E.Not v_n) in
  let add3 = E.And (v_n, v_d) in
  let inc b0 b1 k =
    (* two-bit saturating increment by k ∈ {1,2,3}, as (bit0, bit1) *)
    match k with
    | 1 ->
      ( E.Or (E.And (b0, b1), E.Not b0),
        E.Or (b1, b0) )
    | 2 -> (E.Or (b0, b1), E.Const true)
    | _ -> (E.Const true, E.Const true)
  in
  let sel0_1, sel1_1 = inc v_c0 v_c1 1 in
  let sel0_2, sel1_2 = inc v_c0 v_c1 2 in
  let sel0_3, sel1_3 = inc v_c0 v_c1 3 in
  let next0 =
    E.Ite
      ( full, E.Const false,
        E.Ite (add1, sel0_1, E.Ite (add2, sel0_2, E.Ite (add3, sel0_3, v_c0)))
      )
  in
  let next1 =
    E.Ite
      ( full, E.Const false,
        E.Ite (add1, sel1_1, E.Ite (add2, sel1_2, E.Ite (add3, sel1_3, v_c1)))
      )
  in
  let n0 = N.add_node b ~name:"n0" next0 fanins in
  let n1 = N.add_node b ~name:"n1" next1 fanins in
  N.set_latch_input b c0 n0;
  N.set_latch_input b c1 n1;
  let dispense = N.add_node b ~name:"dispense" (E.And (E.Var 0, E.Var 1)) [| c0; c1 |] in
  N.add_output b "dispense" dispense;
  let maxed = N.add_node b ~name:"maxed" (E.And (E.Var 0, E.Var 1)) [| c0; c1 |] in
  N.add_output b "maxed" maxed;
  N.freeze b

let random_logic ?(seed = 1) ~inputs ~outputs ~latches ~levels () =
  at_least "rnd" "inputs" 1 inputs;
  at_least "rnd" "outputs" 1 outputs;
  at_least "rnd" "latches" 1 latches;
  at_least "rnd" "levels" 1 levels;
  let rng = Random.State.make [| seed; inputs; outputs; latches; levels |] in
  let b =
    N.create (Printf.sprintf "rnd_i%d_o%d_l%d_s%d" inputs outputs latches seed)
  in
  let pis = List.init inputs (fun k -> N.add_input b (Printf.sprintf "i%d" k)) in
  let regs =
    List.init latches (fun k ->
        N.add_latch b
          ~name:(Printf.sprintf "x%d" k)
          ~init:(Random.State.bool rng) ())
  in
  let pool = ref (Array.of_list (pis @ regs)) in
  for level = 1 to levels do
    let width = max 4 (Array.length !pool) in
    let fresh =
      List.init width (fun k ->
          let pick () = !pool.(Random.State.int rng (Array.length !pool)) in
          let a = pick () and c = pick () in
          let lit j = if Random.State.bool rng then E.Var j else E.Not (E.Var j) in
          let fn =
            match Random.State.int rng 3 with
            | 0 -> E.And (lit 0, lit 1)
            | 1 -> E.Or (lit 0, lit 1)
            | _ -> E.Xor (lit 0, lit 1)
          in
          N.add_node b ~name:(Printf.sprintf "n%d_%d" level k) fn [| a; c |])
    in
    (* later levels draw from both old and new nodes *)
    pool := Array.append !pool (Array.of_list fresh)
  done;
  let pick_late () =
    let n = Array.length !pool in
    !pool.(n - 1 - Random.State.int rng (max 1 (n / 2)))
  in
  List.iter (fun l -> N.set_latch_input b l (pick_late ())) regs;
  for k = 0 to outputs - 1 do
    N.add_output b (Printf.sprintf "o%d" k) (pick_late ())
  done;
  N.freeze b

let parallel name components =
  let b = N.create name in
  List.iteri
    (fun pos (net : N.t) ->
      let prefix = Printf.sprintf "m%d." pos in
      let map = Hashtbl.create 64 in
      List.iter
        (fun id ->
          Hashtbl.replace map id
            (N.add_input b (prefix ^ N.net_name net id)))
        net.N.inputs;
      List.iter
        (fun id ->
          Hashtbl.replace map id
            (N.add_latch b
               ~name:(prefix ^ N.net_name net id)
               ~init:(N.latch_init net id) ()))
        net.N.latches;
      N.iter_topo
        (fun id ->
          match net.N.drivers.(id) with
          | N.Input | N.Latch _ -> ()
          | N.Node { fanins; fn } ->
            Hashtbl.replace map id
              (N.add_node b
                 ~name:(prefix ^ N.net_name net id)
                 fn
                 (Array.map (Hashtbl.find map) fanins)))
        net;
      List.iter
        (fun id ->
          N.set_latch_input b (Hashtbl.find map id)
            (Hashtbl.find map (N.latch_input net id)))
        net.N.latches;
      List.iter
        (fun (oname, id) ->
          N.add_output b (prefix ^ oname) (Hashtbl.find map id))
        net.N.outputs)
    components;
  N.freeze b
