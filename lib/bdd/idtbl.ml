(* Open addressing with linear probing over flat arrays: a key of -1
   marks an empty slot. [used] lists the occupied slots in insertion
   order, so [clear] costs the number of entries, not the capacity, and
   a table reused for many small jobs stays cheap to empty. The load
   stays at most 1/2. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable used : int array;
  mutable n : int;
  absent : 'a;
}

let rec pow2 k n = if k >= n then k else pow2 (2 * k) n

let create n absent =
  let cap = pow2 16 (2 * n) in
  { keys = Array.make cap (-1);
    vals = Array.make cap absent;
    used = Array.make (cap / 2) 0;
    n = 0;
    absent }

let hash k =
  let h = k * 0x9e3779b1 in
  h lxor (h lsr 17)

(* the slot holding [k], or the empty slot where it would go *)
let slot t k =
  let mask = Array.length t.keys - 1 in
  let i = ref (hash k land mask) in
  while
    let k' = Array.unsafe_get t.keys !i in
    k' <> k && k' >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

let find t k =
  let i = slot t k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else t.absent

(* entries are re-inserted in insertion order, so a table's layout
   depends only on its history *)
let rec replace t k v =
  if k < 0 then invalid_arg "Idtbl.replace: negative key";
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else if 2 * (t.n + 1) > Array.length t.keys then begin
    grow t;
    replace t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.used.(t.n) <- i;
    t.n <- t.n + 1
  end

and grow t =
  let keys = t.keys and vals = t.vals and used = t.used and n = t.n in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap t.absent;
  t.used <- Array.make (cap / 2) 0;
  t.n <- 0;
  for j = 0 to n - 1 do
    let i = used.(j) in
    replace t keys.(i) vals.(i)
  done

let clear t =
  for j = 0 to t.n - 1 do
    let i = t.used.(j) in
    t.keys.(i) <- -1;
    t.vals.(i) <- t.absent
  done;
  t.n <- 0

let filter_inplace t keep =
  let n = t.n in
  let ks = Array.init n (fun j -> t.keys.(t.used.(j))) in
  let vs = Array.init n (fun j -> t.vals.(t.used.(j))) in
  clear t;
  for j = 0 to n - 1 do
    if keep ks.(j) vs.(j) then replace t ks.(j) vs.(j)
  done
