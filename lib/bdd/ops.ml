module M = Manager

(* The computed-cache recursions ([bnot], [ite], [band], [bor], [exists],
   [and_exists], [cofactor_cube]) live in
   [Manager], next to the node store and computed cache they probe:
   dune's dev profile compiles with -opaque, so every [Manager] accessor,
   [mk] and cache probe called from here would be a full cross-module
   call in the kernel's innermost loops. With them there, a
   release-profile build runs the solver benchmark's table1-large within
   1% of the dev build (it was 11-15% faster when they lived here). This
   module re-exports them and builds the derived operations on top, under
   the same GC discipline (see [Manager]): the caller keeps the operands
   alive, and an intermediate that a later operation could sweep is
   pinned on the operand stack until it is consumed. Keep cache probes
   out of this module. *)

let var_bdd m v = M.mk m v M.zero M.one
let nvar_bdd m v = M.mk m v M.one M.zero

let bnot = M.bnot
let ite = M.ite
let band = M.band
let bor = M.bor
let exists = M.exists
let and_exists = M.and_exists
let cofactor_cube = M.cofactor_cube

let bxor m f g =
  let ng = bnot m g in
  M.stack_push m ng;
  let r = ite m f ng g in
  M.stack_drop m 1;
  r

let bxnor m f g =
  let ng = bnot m g in
  M.stack_push m ng;
  let r = ite m f g ng in
  M.stack_drop m 1;
  r

let bdiff m f g =
  let ng = bnot m g in
  M.stack_push m ng;
  let r = ite m f ng M.zero in
  M.stack_drop m 1;
  r

(* Balanced reduction keeps intermediate BDDs small on long lists; each
   round's results are pinned until the fold completes. *)
let balanced_fold op neutral m fs =
  let pins = ref 0 in
  let rec round = function
    | [] -> []
    | [ f ] -> [ f ]
    | f :: g :: rest ->
      let r = op m f g in
      M.stack_push m r;
      incr pins;
      r :: round rest
  in
  let rec go = function [ f ] -> f | fs -> go (round fs) in
  match fs with
  | [] -> neutral
  | fs ->
    let r = go fs in
    M.stack_drop m !pins;
    r

let conj m fs = balanced_fold band M.one m fs
let disj m fs = balanced_fold bor M.zero m fs

let cube_of_vars m vars =
  let sorted = List.sort_uniq compare vars in
  List.fold_right (fun v acc -> M.mk m v M.zero acc) sorted M.one

let cube_of_literals m lits =
  let sorted =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) lits
  in
  List.fold_right
    (fun (v, pos) acc ->
      if pos then M.mk m v M.zero acc else M.mk m v acc M.zero)
    sorted M.one

let forall m cube f =
  let nf = bnot m f in
  M.stack_push m nf;
  let e = exists m cube nf in
  M.stack_push m e;
  let r = bnot m e in
  M.stack_drop m 2;
  r

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
          match lookup v with Some g -> g | None -> var_bdd m v
        in
        let r = ite m guard hi lo in
        Hashtbl.add memo f r;
        r
  in
  go f

let support = M.support

let rename m f pairs =
  M.with_frozen m @@ fun () ->
  let map = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.replace map a b) pairs;
  let image v = match Hashtbl.find_opt map v with Some b -> b | None -> v in
  let supp = support m f in
  let images = List.map image supp in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | [ _ ] | [] -> true
  in
  if monotone images then begin
    (* Order-preserving on the support: direct O(|f|) rebuild. *)
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
        | Some b -> Some (var_bdd m b)
        | None -> None)

let size_shared = M.dag_size

let size m f = size_shared m [ f ]

let sat_count m f nvars =
  let memo = Hashtbl.create 64 in
  (* fraction of the full space on which f is true *)
  let rec frac f =
    if f = M.zero then 0.0
    else if f = M.one then 1.0
    else
      match Hashtbl.find_opt memo f with
      | Some x -> x
      | None ->
        let x = 0.5 *. (frac (M.low m f) +. frac (M.high m f)) in
        Hashtbl.add memo f x;
        x
  in
  frac f *. (2.0 ** float_of_int nvars)

let eval m f assign =
  let rec go f =
    if f = M.zero then false
    else if f = M.one then true
    else if assign (M.var m f) then go (M.high m f)
    else go (M.low m f)
  in
  go f

let pick_minterm m f vars =
  if f = M.zero then None
  else begin
    (* Walk one satisfying path, then default unconstrained vars to false. *)
    let path = Hashtbl.create 16 in
    let rec go f =
      if not (M.is_const f) then
        if M.low m f = M.zero then begin
          Hashtbl.replace path (M.var m f) true;
          go (M.high m f)
        end
        else begin
          Hashtbl.replace path (M.var m f) false;
          go (M.low m f)
        end
    in
    go f;
    Some
      (List.map
         (fun v ->
           (v, match Hashtbl.find_opt path v with Some b -> b | None -> false))
         vars)
  end
