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
  let sorted = List.sort_uniq Int.compare vars in
  List.fold_right (fun v acc -> M.mk m v M.zero acc) sorted M.one

let cube_of_literals m lits =
  let sorted =
    List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) lits
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

let support = M.support

(* [r.(v)] is the variable [v] renames to; variables past the array
   keep their name *)
type renaming = int array

let renaming m pairs =
  let n =
    List.fold_left (fun n (a, _) -> if a >= n then a + 1 else n) (M.num_vars m)
      pairs
  in
  let r = Array.init n Fun.id in
  List.iter (fun (a, b) -> if a >= 0 then r.(a) <- b) pairs;
  r

let image r v = if v < Array.length r then Array.unsafe_get r v else v

(* the images of the support (ascending) strictly increase *)
let rec monotone r prev = function
  | [] -> true
  | v :: vs ->
    let b = image r v in
    b > prev && monotone r b vs

(* Both rebuilds keep their memo in the manager's scratch memo (-1 is
   absent), which [with_scratch_memo] runs frozen: it holds ids the
   collector cannot see. The order of the recursive calls is the node
   stream: the high child goes first in the direct rebuild, the low one
   in the substitution. *)
let rec rebuild m memo r f =
  if M.is_const f then f
  else
    let known = Idtbl.find memo f in
    if known >= 0 then known
    else begin
      let hi = rebuild m memo r (M.high m f) in
      let lo = rebuild m memo r (M.low m f) in
      let res = M.mk m (image r (M.var m f)) lo hi in
      Idtbl.replace memo f res;
      res
    end

(* the simultaneous substitution of the renamed variables' literals *)
let rec substitute m memo r f =
  if M.is_const f then f
  else
    let known = Idtbl.find memo f in
    if known >= 0 then known
    else begin
      let lo = substitute m memo r (M.low m f) in
      let hi = substitute m memo r (M.high m f) in
      let guard = var_bdd m (image r (M.var m f)) in
      let res = ite m guard hi lo in
      Idtbl.replace memo f res;
      res
    end

let rename_by m f r =
  (* order-preserving on the support: direct O(|f|) rebuild *)
  let go = if monotone r min_int (support m f) then rebuild else substitute in
  M.with_scratch_memo m (fun memo -> go m memo r f)

let rename m f pairs = rename_by m f (renaming m pairs)

let size m f = M.dag_size m [ f ]

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

(* the path [pick_minterm] walks, as a byte map: ['\001'] at the level
   of each variable the path sets true *)
let path_bytes m f =
  let path = Bytes.make (M.num_vars m) '\000' in
  let rec go f =
    if not (M.is_const f) then
      if M.low m f = M.zero then begin
        Bytes.unsafe_set path (M.var m f) '\001';
        go (M.high m f)
      end
      else go (M.low m f)
  in
  go f;
  path

let on_path path v = v < Bytes.length path && Bytes.get path v = '\001'

let pick_minterm m f vars =
  if f = M.zero then None
  else begin
    (* walk one satisfying path, then default unconstrained vars to false *)
    let path = path_bytes m f in
    Some (List.map (fun v -> (v, on_path path v)) vars)
  end

(* [cube_of_literals] builds from the last variable up *)
let pick_cube m f vars =
  if f = M.zero then M.zero
  else begin
    let path = path_bytes m f in
    let rec build = function
      | [] -> M.one
      | v :: vs ->
        let acc = build vs in
        if on_path path v then M.mk m v M.zero acc else M.mk m v acc M.zero
    in
    build vars
  end
