module O = Bdd.Ops

(* constructors and clustering hold part lists the collector cannot see,
   so they run frozen; the finished partition's parts are the caller's to
   pin for however long the partition is used *)
let of_functions man pairs =
  Bdd.Manager.with_frozen man @@ fun () ->
  List.map (fun (v, fn) -> O.bxnor man (O.var_bdd man v) fn) pairs

(* The number of variables two ascending supports share: with their
   lengths, it gives their support-overlap (Jaccard) affinity. *)
let rec common a b inter =
  match (a, b) with
  | [], _ | _, [] -> inter
  | x :: xs, y :: ys ->
    if x = y then common xs ys (inter + 1)
    else if x < y then common xs b inter
    else common a ys inter

(* Greedy pairwise merging by support overlap: each round conjoins the
   unblocked pair of highest affinity (the first such pair in item order)
   and keeps the product when it has at most [threshold] nodes, or blocks
   the pair. The items live in one array that each merge compacts in
   place, so item order is that of [parts] with the merged item in the
   first one's place. *)
let cluster_affinity man ~threshold parts =
  if threshold <= 1 then parts
  else begin
    Bdd.Manager.with_frozen man @@ fun () ->
    let items = Array.of_list parts in
    (* [O.support] is ascending and duplicate-free *)
    let supps = Array.map (O.support man) items in
    let lens = Array.map List.length supps in
    let n = ref (Array.length items) in
    (* pairs whose conjunction exceeded the threshold, keyed by their BDD
       ids (below 2^26) packed smaller first *)
    let blocked = Bdd.Idtbl.create 4 false in
    let key pi pj =
      if pi <= pj then (pi lsl 26) lor pj else (pj lsl 26) lor pi
    in
    let continue = ref true in
    while !continue do
      let bi = ref (-1) and bj = ref (-1) and best_aff = ref neg_infinity in
      for i = 0 to !n - 1 do
        for j = i + 1 to !n - 1 do
          if not (Bdd.Idtbl.find blocked (key items.(i) items.(j))) then begin
            let inter = common supps.(i) supps.(j) 0 in
            let union = lens.(i) + lens.(j) - inter in
            (* constant parts have empty support: affinity 1, so they
               merge away for free *)
            let a =
              if union = 0 then 1.0
              else float_of_int inter /. float_of_int union
            in
            if a > !best_aff then begin
              best_aff := a;
              bi := i;
              bj := j
            end
          end
        done
      done;
      if !bi < 0 then continue := false
      else begin
        let i = !bi and j = !bj in
        let candidate = O.band man items.(i) items.(j) in
        if O.size man candidate <= threshold then begin
          items.(i) <- candidate;
          supps.(i) <- O.support man candidate;
          lens.(i) <- List.length supps.(i);
          let last = !n - 1 in
          Array.blit items (j + 1) items j (last - j);
          Array.blit supps (j + 1) supps j (last - j);
          Array.blit lens (j + 1) lens j (last - j);
          n := last
        end
        else Bdd.Idtbl.replace blocked (key items.(i) items.(j)) true
      end
    done;
    List.init !n (Array.get items)
  end

let monolithic man parts =
  List.iter (Bdd.Manager.stack_push man) parts;
  let r = O.conj man parts in
  Bdd.Manager.stack_drop man (List.length parts);
  r
