open Seed_util

(* ------------------------------------------------------------------ *)
(* Trigram positional index                                             *)
(*                                                                      *)
(* Containment search without scans: every indexed string ("document",  *)
(* carried by exactly one item) is decomposed into its overlapping      *)
(* 3-byte substrings. A needle of length n >= 3 contains the trigram    *)
(* instances needle[i..i+2] for i = 0..n-3; a document contains the     *)
(* needle at offset p iff every instance i occurs in it at p + i.       *)
(*                                                                      *)
(* Two parts:                                                           *)
(*   - the base: immutable and built in bulk. Documents are numbered by *)
(*     rank (ascending id) in flat arrays; each distinct trigram owns   *)
(*     one sorted run of entries [rank lsl ob lor offset], so one       *)
(*     carrier's offsets are adjacent and a query moves a forward-only  *)
(*     cursor per needle trigram from one carrier's slice to the next;  *)
(*   - the delta: a persistent map of the documents written since the   *)
(*     last merge plus a tombstone set of base carriers whose base      *)
(*     entry is stale. Queries answer the delta by scanning its texts.  *)
(*                                                                      *)
(* A write is an O(log n) delta update; once the delta passes a fixed   *)
(* fraction of the base it is merged into a new base in one linear pass *)
(* (drop tombstoned entries, merge in the delta's sorted entries). The  *)
(* base is never mutated and the delta is persistent, so the index      *)
(* rides in the copy-on-write database root: snapshots freeze it for    *)
(* free and rollback restores it by root swap.                          *)
(* ------------------------------------------------------------------ *)

let min_needle = 3

(* The trigram at [i], packed into 24 bits. *)
let code s i =
  (Char.code (String.unsafe_get s i) lsl 16)
  lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
  lor Char.code (String.unsafe_get s (i + 2))

(* trigram occurrences of a string = its number of offsets *)
let npos_of s = max 0 (String.length s - 2)

(* Bits needed to hold every value below [x]. *)
let bits_below x =
  let rec go b = if x <= 1 lsl b then b else go (b + 1) in
  go 0

(* Entry runs live in a [Bytes.t] of native-endian 64-bit words rather
   than an [int array]: the GC never scans the contents, and creating
   one does not zero-fill it — a merge writes every word anyway. *)
let eset e i v = Bytes.set_int64_ne e (i lsl 3) (Int64.of_int v)
let elength e = Bytes.length e lsr 3

(* Unchecked access for the merge loop and the query cursors, whose
   indices stay below the lengths of the runs they walk and of the
   buffer the merge sized itself; the bounds checks cost about a fifth
   of a merge (A/B at 10⁴ documents). *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let uget e i = Int64.to_int (get64u e (i lsl 3))
let uset e i v = set64u e (i lsl 3) (Int64.of_int v)

(* Smallest index in [lo, hi) of sorted [a] whose value is >= [x]. *)
let lower_bound (a : int array) lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* The base                                                             *)
(* ------------------------------------------------------------------ *)

type base = {
  ids : int array;  (* rank -> carrier id ([Ident.to_int]), ascending *)
  paths : string array;  (* rank -> attribute (class) path *)
  npos : int array;  (* rank -> trigram occurrences indexed *)
  grams : int array;  (* distinct trigram codes, ascending *)
  runs : Bytes.t array;
      (* gram [g]'s entries [rank lsl ob lor offset], ascending *)
  carriers : int array;  (* gram [g] -> distinct carriers *)
  ob : int;  (* offset bits: every offset is below [1 lsl ob] *)
}

let empty_base =
  {
    ids = [||];
    paths = [||];
    npos = [||];
    grams = [||];
    runs = [||];
    carriers = [||];
    ob = 0;
  }

let rank_of b id =
  let x = Ident.to_int id in
  let n = Array.length b.ids in
  let r = lower_bound b.ids 0 n x in
  if r < n && b.ids.(r) = x then r else -1

let gram_of b c =
  let n = Array.length b.grams in
  let g = lower_bound b.grams 0 n c in
  if g < n && b.grams.(g) = c then g else -1

(* Open-addressing table from trigram code to a dense number in
   first-seen order. A bulk build looks up every trigram occurrence
   twice; with [Hashtbl] instead, the build at 10⁵ documents takes
   ~0.67 s rather than ~0.38 s. *)
type codes = {
  mutable keys : int array;  (* -1 = free slot *)
  mutable slots : int array;  (* dense number of [keys.(i)] *)
  mutable count : int;
}

let codes_create () =
  { keys = Array.make 256 (-1); slots = Array.make 256 0; count = 0 }

let rec codes_slot keys c i =
  let k = Array.unsafe_get keys i in
  if k = c || k < 0 then i
  else codes_slot keys c ((i + 1) land (Array.length keys - 1))

let codes_home keys c = ((c * 0x9E3779B1) lsr 12) land (Array.length keys - 1)

let codes_find t c =
  t.slots.(codes_slot t.keys c (codes_home t.keys c))

let rec codes_add t c =
  let i = codes_slot t.keys c (codes_home t.keys c) in
  if t.keys.(i) = c then t.slots.(i)
  else if 2 * (t.count + 1) > Array.length t.keys then begin
    let keys = t.keys and slots = t.slots in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.slots <- Array.make (2 * Array.length keys) 0;
    Array.iteri
      (fun j k ->
        if k >= 0 then begin
          let i = codes_slot t.keys k (codes_home t.keys k) in
          t.keys.(i) <- k;
          t.slots.(i) <- slots.(j)
        end)
      keys;
    codes_add t c
  end
  else begin
    t.keys.(i) <- c;
    t.slots.(i) <- t.count;
    t.count <- t.count + 1;
    t.count - 1
  end

(* The sorted per-gram runs of [docs] — (new rank, path, text), in rank
   order — as [(codes, runs, carriers)] with [ob] offset bits: one
   counting pass numbers the distinct trigrams and sizes their runs, and
   one scatter pass writes each occurrence into its gram's run.
   Occurrences are generated in (rank, offset) order, so every run comes
   out sorted. *)
let runs_of_docs docs ~ob =
  let tbl = codes_create () in
  let counts = ref (Array.make 64 0) in
  Array.iter
    (fun (_, _, s) ->
      for i = 0 to String.length s - 3 do
        let d = codes_add tbl (code s i) in
        if d >= Array.length !counts then begin
          let c = Array.make (2 * Array.length !counts) 0 in
          Array.blit !counts 0 c 0 (Array.length !counts);
          counts := c
        end;
        !counts.(d) <- !counts.(d) + 1
      done)
    docs;
  let ng = tbl.count in
  let code_of = Array.make ng 0 in
  Array.iteri (fun i k -> if k >= 0 then code_of.(tbl.slots.(i)) <- k) tbl.keys;
  let dense_runs = Array.init ng (fun d -> Bytes.create (8 * !counts.(d))) in
  let fill = Array.make ng 0 and carriers = Array.make ng 0 in
  let last = Array.make ng (-1) (* last rank written to each run *) in
  Array.iter
    (fun (rank, _, s) ->
      for i = 0 to String.length s - 3 do
        let d = codes_find tbl (code s i) in
        eset dense_runs.(d) fill.(d) ((rank lsl ob) lor i);
        fill.(d) <- fill.(d) + 1;
        if last.(d) <> rank then begin
          last.(d) <- rank;
          carriers.(d) <- carriers.(d) + 1
        end
      done)
    docs;
  let order = Array.init ng Fun.id in
  Array.sort (fun a b -> Int.compare code_of.(a) code_of.(b)) order;
  let by_code a = Array.map (fun d -> a.(d)) order in
  (by_code code_of, by_code dense_runs, by_code carriers)

(* The base holding [b]'s carriers except those in [dead], plus [add]
   — (id, path, text) ascending by id, disjoint from the surviving base
   ids. One pass over [b]'s entries: dead ranks are dropped, the others
   renumbered, and each gram's run is merged with [add]'s run for the
   same gram. With an empty [b] this is the bulk build. *)
let merge b ~dead (add : (int * string * string) array) =
  let nb = Array.length b.ids and na = Array.length add in
  let alive = Array.make nb true in
  Ident.Set.iter
    (fun id ->
      let r = rank_of b id in
      if r >= 0 then alive.(r) <- false)
    dead;
  let nkeep = Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive in
  let n = nkeep + na in
  let ids = Array.make n 0 and paths = Array.make n "" and npos = Array.make n 0 in
  let remap = Array.make nb (-1) in
  let added = Array.make na (0, "", "") in
  let r = ref 0 and j = ref 0 in
  for k = 0 to n - 1 do
    while !r < nb && not alive.(!r) do incr r done;
    let take_base =
      !j >= na || (!r < nb && b.ids.(!r) < (let id, _, _ = add.(!j) in id))
    in
    if take_base then begin
      ids.(k) <- b.ids.(!r);
      paths.(k) <- b.paths.(!r);
      npos.(k) <- b.npos.(!r);
      remap.(!r) <- k;
      incr r
    end
    else begin
      let id, path, s = add.(!j) in
      ids.(k) <- id;
      paths.(k) <- path;
      npos.(k) <- npos_of s;
      added.(!j) <- (k, path, s);
      incr j
    end
  done;
  let ob = bits_below (Array.fold_left Int.max 0 npos) in
  if bits_below n + ob > 62 then
    failwith "Text_index: a text too long to pack beside this many ranks";
  let dcodes, druns, dcarriers = runs_of_docs added ~ob in
  let grams, runs, carriers =
    if nb = 0 then (dcodes, druns, dcarriers) (* bulk build *)
    else begin
      let nbg = Array.length b.grams and ndg = Array.length dcodes in
      let longest rs = Array.fold_left (fun m r -> Int.max m (Bytes.length r)) 0 rs in
      (* each merged run is assembled here, then copied out at its size *)
      let scratch = Bytes.create (longest b.runs + longest druns) in
      let grams = Array.make (nbg + ndg) 0 and runs = Array.make (nbg + ndg) Bytes.empty in
      let carriers = Array.make (nbg + ndg) 0 in
      let omask = (1 lsl b.ob) - 1 in
      let ng = ref 0 and gi = ref 0 and gj = ref 0 in
      while !gi < nbg || !gj < ndg do
        let cb = if !gi < nbg then b.grams.(!gi) else max_int in
        let cd = if !gj < ndg then dcodes.(!gj) else max_int in
        let c = if cb < cd then cb else cd in
        let dr = if cd = c then druns.(!gj) else Bytes.empty in
        (* [scratch.(w)] is the next write; [nc] counts the distinct ranks
           written, [last] is the latest *)
        let w = ref 0 and j = ref 0 and nc = ref 0 and last = ref (-1) in
        if cb = c then begin
          let br = b.runs.(!gi) in
          for i = 0 to elength br - 1 do
            let e = uget br i in
            let nr = remap.(e lsr b.ob) in
            if nr >= 0 then begin
              let v = (nr lsl ob) lor (e land omask) in
              while !j < elength dr && uget dr !j < v do
                let u = uget dr !j in
                uset scratch !w u;
                incr w;
                incr j;
                if u lsr ob <> !last then begin
                  last := u lsr ob;
                  incr nc
                end
              done;
              uset scratch !w v;
              incr w;
              if nr <> !last then begin
                last := nr;
                incr nc
              end
            end
          done;
          incr gi
        end;
        (* the rest of the delta run: ranks above every base entry *)
        if !j < elength dr then begin
          let rest = elength dr - !j in
          Bytes.blit dr (8 * !j) scratch (8 * !w) (8 * rest);
          w := !w + rest;
          for k = !j to elength dr - 1 do
            if uget dr k lsr ob <> !last then begin
              last := uget dr k lsr ob;
              incr nc
            end
          done
        end;
        if cd = c then incr gj;
        if !w > 0 then begin
          grams.(!ng) <- c;
          runs.(!ng) <- Bytes.sub scratch 0 (8 * !w);
          carriers.(!ng) <- !nc;
          incr ng
        end
      done;
      (Array.sub grams 0 !ng, Array.sub runs 0 !ng, Array.sub carriers 0 !ng)
    end
  in
  { ids; paths; npos; grams; runs; carriers; ob }

(* ------------------------------------------------------------------ *)
(* Base plus delta                                                      *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

(* A 126-bit Bloom signature of a string's trigrams, as two words: a
   delta document whose signature lacks one of the needle's bits cannot
   contain the needle, so a query skips its text without reading it. *)
let signature s =
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to String.length s - 3 do
    let b = ((code s i * 0x9E3779B1) lsr 11) mod 126 in
    if b < 63 then lo := !lo lor (1 lsl b) else hi := !hi lor (1 lsl (b - 63))
  done;
  (!lo, !hi)

type doc = { path : string; text : string; sig_lo : int; sig_hi : int }

type t = {
  base : base;
  docs : doc Ident.Map.t;
      (* delta: documents written since the last merge; a delta id that
         is also a base id is tombstoned there *)
  ndelta : int;  (* cardinal of [docs] *)
  tomb : Ident.Set.t;  (* base carriers whose base entry is stale *)
  ntomb : int;  (* cardinal of [tomb] *)
  dgrams : Iset.t;
      (* trigram codes occurring in some delta document — a superset
         once delta documents are removed; empty after a merge *)
  merges : int;  (* merges since the bulk build *)
}

let empty =
  {
    base = empty_base;
    docs = Ident.Map.empty;
    ndelta = 0;
    tomb = Ident.Set.empty;
    ntomb = 0;
    dgrams = Iset.empty;
    merges = 0;
  }

(* The merge point: the delta is merged once its documents or its
   tombstones exceed 1/[merge_ratio] of the base's documents. A merge is
   linear in the base, so a write pays [merge_ratio] documents' worth
   of merge work amortized, whatever the size; a query scans at most
   1/[merge_ratio] of the documents in the delta. DESIGN.md §14 records
   the sweep this value comes from. *)
let merge_ratio = 16

let doc_count t = Array.length t.base.ids - t.ntomb + t.ndelta
let is_empty t = doc_count t = 0

let live_in_base t id =
  (t.ntomb = 0 || not (Ident.Set.mem id t.tomb)) && rank_of t.base id >= 0

let path_of t id =
  match Ident.Map.find_opt id t.docs with
  | Some d -> Some d.path
  | None ->
    if t.ntomb > 0 && Ident.Set.mem id t.tomb then None
    else
      let r = rank_of t.base id in
      if r >= 0 then Some t.base.paths.(r) else None

let merge_delta t =
  let add =
    Ident.Map.fold
      (fun id d acc -> (Ident.to_int id, d.path, d.text) :: acc)
      t.docs []
    |> List.rev |> Array.of_list
  in
  { empty with base = merge t.base ~dead:t.tomb add; merges = t.merges + 1 }

let maybe_merge t =
  if Int.max t.ndelta t.ntomb * merge_ratio > Array.length t.base.ids then
    merge_delta t
  else t

(* Drop a carrier without merging. *)
let unindex t id =
  if Ident.Map.mem id t.docs then
    (* its base entry, if any, is tombstoned already *)
    { t with docs = Ident.Map.remove id t.docs; ndelta = t.ndelta - 1 }
  else if live_in_base t id then
    { t with tomb = Ident.Set.add id t.tomb; ntomb = t.ntomb + 1 }
  else t

let remove_doc t id = maybe_merge (unindex t id)

let add_doc t id ~path s =
  let t = unindex t id in
  let dgrams = ref t.dgrams in
  for i = 0 to String.length s - 3 do
    dgrams := Iset.add (code s i) !dgrams
  done;
  let sig_lo, sig_hi = signature s in
  maybe_merge
    {
      t with
      docs = Ident.Map.add id { path; text = s; sig_lo; sig_hi } t.docs;
      ndelta = t.ndelta + 1;
      dgrams = !dgrams;
    }

let build feed =
  let acc = ref [] in
  feed (fun id ~path s -> acc := (Ident.to_int id, path, s) :: !acc);
  let docs = Array.of_list !acc in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) docs;
  { empty with base = merge empty_base ~dead:Ident.Set.empty docs }

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

type probe = {
  pr_trigrams : int;  (* distinct needle trigrams consulted *)
  pr_postings : int;  (* base carriers across their runs *)
  pr_candidates : int;  (* carriers surviving the intersection *)
  pr_verified : int;  (* carriers surviving positional verification *)
}

(* Scan-side containment: the semantics the index answers. Compares
   bytes in place with plain loops — no substring and no closure is
   allocated. *)
let string_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let found = ref (n = 0) and i = ref 0 in
  while (not !found) && !i <= h - n do
    if String.unsafe_get hay !i = String.unsafe_get needle 0 then begin
      let j = ref 1 in
      while !j < n && String.unsafe_get hay (!i + !j) = String.unsafe_get needle !j do
        incr j
      done;
      found := !j = n
    end;
    incr i
  done;
  !found

let check_needle fn needle =
  if String.length needle < min_needle then
    invalid_arg (Printf.sprintf "Text_index.%s: needle shorter than 3 bytes" fn)

(* The needle's distinct trigram codes. *)
let needle_codes needle =
  let acc = ref Iset.empty in
  for i = 0 to String.length needle - 3 do
    acc := Iset.add (code needle i) !acc
  done;
  Iset.elements !acc

(* First index in [k, n) of run [e] whose entry is >= [x], galloping
   forward from [k]: O(log d) for a target d entries ahead, so a cursor
   that only moves forward pays for the distance it moves, not for the
   run's length. [k <= n <= elength e]. *)
let gallop e k n x =
  if k >= n || uget e k >= x then k
  else begin
    (* [e.(lo) < x]; probe lo + 1, lo + 2, lo + 4, ... until past [x] *)
    let lo = ref k and step = ref 1 in
    while !lo + !step < n && uget e (!lo + !step) < x do
      lo := !lo + !step;
      step := 2 * !step
    done;
    let lo = ref (!lo + 1) and hi = ref (Int.min n (!lo + !step)) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if uget e mid < x then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* Live base carriers whose text holds the needle. The rarest instance's
   run is walked one carrier (rank) at a time; every other instance
   keeps a cursor into its own run. Ranks only ascend, so a cursor only
   moves forward, galloping to the carrier's slice
   [rank lsl ob, (rank + 1) lsl ob). The instances are checked rarest
   first, so a carrier missing from a run is dropped early. A carrier
   present in every run is a candidate; its aligned starts come from the
   rarest instance's offsets (so that instance holds by construction)
   and the others are verified inside the per-carrier slices, again
   with forward-only cursors. *)
let query_base t ~path_ok needle found candidates =
  let b = t.base in
  let m = String.length needle - 2 in
  let inst = Array.init m (fun i -> gram_of b (code needle i)) in
  if Array.for_all (fun g -> g >= 0) inst then begin
    let order = Array.init m Fun.id in
    Array.stable_sort
      (fun i j -> Int.compare b.carriers.(inst.(i)) b.carriers.(inst.(j)))
      order;
    let i0 = order.(0) in
    let runs = Array.map (fun g -> b.runs.(g)) inst in
    let lens = Array.map elength runs in
    (* [cur.(i)]: no entry of the current carrier or a later one lies
       below it in instance [i]'s run; [pos.(i)]: the same for the
       current aligned start *)
    let cur = Array.make m 0 and pos = Array.make m 0 in
    let ob = b.ob in
    let mask = (1 lsl ob) - 1 in
    let run = runs.(i0) and stop = lens.(i0) in
    let rec present rank j =
      j = m
      ||
      let i = order.(j) in
      let c = gallop runs.(i) cur.(i) lens.(i) (rank lsl ob) in
      cur.(i) <- c;
      c < lens.(i) && uget runs.(i) c lsr ob = rank && present rank (j + 1)
    in
    let rec aligned base j =
      j = m
      ||
      let i = order.(j) in
      let x = base + i in
      let c = gallop runs.(i) pos.(i) lens.(i) x in
      pos.(i) <- c;
      c < lens.(i) && uget runs.(i) c = x && aligned base (j + 1)
    in
    let k = ref 0 in
    while !k < stop do
      let rank = uget run !k lsr ob in
      let first = !k in
      while !k < stop && uget run !k lsr ob = rank do incr k done;
      let id = Ident.of_int b.ids.(rank) in
      if
        path_ok b.paths.(rank)
        && (t.ntomb = 0 || not (Ident.Set.mem id t.tomb))
        && present rank 1
      then begin
        incr candidates;
        (* candidate starts come from the rarest instance's offsets *)
        Array.blit cur 0 pos 0 m;
        let q = ref first and hit = ref false in
        while (not !hit) && !q < !k do
          let p = (uget run !q land mask) - i0 in
          hit :=
            p >= 0 && p + m <= b.npos.(rank) && aligned ((rank lsl ob) lor p) 1;
          incr q
        done;
        if !hit then found := id :: !found
      end
    done
  end

let query_probe t ?path needle =
  check_needle "query" needle;
  let path_ok =
    match path with None -> fun _ -> true | Some p -> String.equal p
  in
  let codes = needle_codes needle in
  (* hits are collected in a list and made a set once: adding them one
     by one copies a path of the tree per hit *)
  let found = ref [] and candidates = ref 0 in
  query_base t ~path_ok needle found candidates;
  (* a delta document holding the needle holds all its trigrams *)
  if t.ndelta > 0 && List.for_all (fun c -> Iset.mem c t.dgrams) codes then begin
    let lo, hi = signature needle in
    Ident.Map.iter
      (fun id d ->
        if d.sig_lo land lo = lo && d.sig_hi land hi = hi && path_ok d.path
        then begin
          incr candidates;
          if string_contains d.text needle then found := id :: !found
        end)
      t.docs
  end;
  let found = Ident.Set.of_list !found in
  ( found,
    {
      pr_trigrams = List.length codes;
      pr_postings =
        List.fold_left
          (fun acc c ->
            let g = gram_of t.base c in
            if g >= 0 then acc + t.base.carriers.(g) else acc)
          0 codes;
      pr_candidates = !candidates;
      pr_verified = Ident.Set.cardinal found;
    } )

let query t ?path needle = fst (query_probe t ?path needle)

(* Upper bound on the carriers [query] would verify: per needle
   trigram, its base carrier count plus — when the trigram occurs in
   the delta — the delta's size; the minimum over the trigrams. Exact
   while the delta is empty (after a build or a merge). O(# needle
   trigrams) — the planner uses it to refuse needles so common that
   walking their runs would cost more than the scan. *)
let estimate t needle =
  check_needle "estimate" needle;
  List.fold_left
    (fun acc c ->
      let g = gram_of t.base c in
      let nb = if g >= 0 then t.base.carriers.(g) else 0 in
      let nd = if Iset.mem c t.dgrams then t.ndelta else 0 in
      Int.min acc (nb + nd))
    max_int (needle_codes needle)

(* ------------------------------------------------------------------ *)
(* Stats and logical equality                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  trigrams : int;
  postings : int;
  positions : int;
  docs : int;
  delta : int;
  merges : int;
  bytes : int;
}

let stats t =
  let b = t.base in
  let words a = Array.length a + 1 in
  (* base: the blocks' actual sizes — a run of k entries is a string
     block of k + 2 words — with the path strings shared with the item
     records; delta: a map node and a record per document, a set node
     per tombstone and per delta trigram (texts are shared too) *)
  let base_words =
    words b.ids + words b.paths + words b.npos + words b.grams
    + words b.runs + words b.carriers + 8
    + Array.fold_left (fun acc r -> acc + elength r + 2) 0 b.runs
  in
  let delta_words =
    (11 * t.ndelta) + (5 * t.ntomb) + (5 * Iset.cardinal t.dgrams) + 8
  in
  {
    trigrams = Array.length b.grams;
    postings = Array.fold_left ( + ) 0 b.carriers;
    positions = Array.fold_left (fun acc r -> acc + elength r) 0 b.runs;
    docs = doc_count t;
    delta = t.ndelta + t.ntomb;
    merges = t.merges;
    bytes = 8 * (base_words + delta_words);
  }

let canonical t =
  if t.ndelta = 0 && t.ntomb = 0 then t.base else (merge_delta t).base

let equal a b = canonical a = canonical b
