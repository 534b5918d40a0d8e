(* The seeded workload generator. Everything the server receives — the
   prepared store and every request — comes from here, and the same
   seed always gives the same corpus and the same request streams. The
   expected answers are computed here too, by scanning the generated
   text, independently of the engine. *)

open Seed_schema

type workload = Edit | Browse | Mixed

let workload_of_string = function
  | "edit" -> Some Edit
  | "browse" -> Some Browse
  | "mixed" -> Some Mixed
  | _ -> None

let workload_name = function
  | Edit -> "edit"
  | Browse -> "browse"
  | Mixed -> "mixed"

(* The X1 vocabulary of the content-search suite: 48 words, each in
   about a fifth of the documents, so no single word is selective. *)
let vocab =
  [|
    "the"; "module"; "reads"; "its"; "input"; "stream"; "and"; "writes";
    "a"; "checked"; "record"; "to"; "journal"; "before"; "commit";
    "every"; "alarm"; "handler"; "must"; "release"; "lease"; "within";
    "bounded"; "time"; "or"; "escalate"; "recovery"; "path"; "replays";
    "pending"; "groups"; "after"; "crash"; "version"; "views"; "stay";
    "immutable"; "while"; "branch"; "switch"; "rebuilds"; "extent";
    "caches"; "operator"; "confirms"; "each"; "step"; "manually";
  |]

let words_per_doc = 12

type doc = { name : string; text : string; revised : Value.date }

type corpus = {
  docs : doc array;
  phrases : string array;  (** planted rare phrases *)
  pairs : string array;  (** selective two-word vocabulary phrases *)
  negatives : string array;  (** phrases that occur nowhere *)
  expect : (string, string list) Hashtbl.t;
      (** needle -> sorted names of the documents containing it *)
}

let doc_name i = Printf.sprintf "Spec%05d" i

let sentence rng =
  String.concat " "
    (List.init words_per_doc (fun _ ->
         vocab.(Random.State.int rng (Array.length vocab))))

let date rng =
  {
    Value.year = 1980 + Random.State.int rng 8;
    month = 1 + Random.State.int rng 12;
    day = 1 + Random.State.int rng 28;
  }

(* Planted phrases use characters the vocabulary never contains ('-',
   digits, capitals), so each occurs only where it was planted. *)
let phrase k = Printf.sprintf "REQ-%04d quarantine" k

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec at i j =
    j = n || (text.[i + j] = needle.[j] && at i (j + 1))
  in
  let rec from i = i + n <= m && (at i 0 || from (i + 1)) in
  from 0

let scan docs needle =
  Array.fold_right
    (fun d acc -> if contains d.text needle then d.name :: acc else acc)
    docs []
  |> List.sort String.compare

let corpus ~seed ~docs:n =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let nphrases = max 2 (n / 100) in
  let per_phrase = max 1 (min 10 (n / nphrases)) in
  let planted = Array.make n None in
  for k = 0 to nphrases - 1 do
    let placed = ref 0 in
    while !placed < per_phrase do
      let i = Random.State.int rng n in
      if planted.(i) = None then begin
        planted.(i) <- Some k;
        incr placed
      end
    done
  done;
  let docs =
    Array.init n (fun i ->
        let body = sentence rng in
        let text =
          match planted.(i) with
          | Some k -> body ^ " " ^ phrase k
          | None -> body
        in
        { name = doc_name i; text; revised = date rng })
  in
  let phrases = Array.init nphrases phrase in
  (* document frequency of every trigram *)
  let df = Hashtbl.create 4096 in
  Array.iter
    (fun d ->
      let seen = Hashtbl.create 64 in
      for i = 0 to String.length d.text - 3 do
        let g = String.sub d.text i 3 in
        if not (Hashtbl.mem seen g) then begin
          Hashtbl.replace seen g ();
          Hashtbl.replace df g (1 + Option.value ~default:0 (Hashtbl.find_opt df g))
        end
      done)
    docs;
  let rarest_gram needle =
    let best = ref max_int in
    for i = 0 to String.length needle - 3 do
      best :=
        min !best
          (Option.value ~default:0 (Hashtbl.find_opt df (String.sub needle i 3)))
    done;
    !best
  in
  (* two adjacent words of a random document, kept when they occur
     together in at most 1% of the documents and one of their trigrams
     in at most 2%: selective, and cheap to answer from a trigram index,
     although each word alone is in about a fifth of the documents *)
  let limit = max 2 (n / 100) and gram_limit = max 2 (n / 50) in
  let expect = Hashtbl.create 256 in
  let pairs = ref [] and tries = ref 0 in
  while List.length !pairs < nphrases && !tries < 50 * nphrases do
    incr tries;
    let d = docs.(Random.State.int rng n) in
    let w = String.split_on_char ' ' d.text in
    let p = Random.State.int rng (words_per_doc - 1) in
    let needle = List.nth w p ^ " " ^ List.nth w (p + 1) in
    if (not (Hashtbl.mem expect needle)) && rarest_gram needle <= gram_limit
    then begin
      let hits = scan docs needle in
      if List.length hits <= limit then begin
        Hashtbl.replace expect needle hits;
        pairs := needle :: !pairs
      end
    end
  done;
  let negatives =
    Array.append [| "holographic xylophone" |]
      (Array.init (max 1 (nphrases / 10)) (fun k -> phrase (nphrases + k)))
  in
  Array.iter (fun p -> Hashtbl.replace expect p (scan docs p)) phrases;
  Array.iter (fun p -> Hashtbl.replace expect p (scan docs p)) negatives;
  { docs; phrases; pairs = Array.of_list (List.rev !pairs); negatives; expect }

(* --- request streams -------------------------------------------------- *)

type op =
  | Set_text of { doc : int; text : string }
      (** checkout + check-in of a new [Description] *)
  | Set_date of { doc : int; date : Value.date }
      (** checkout + check-in of a new [Revised] date (not indexed) *)
  | Find of int  (** name -> class path *)
  | Search of string  (** one needle, any attribute path *)

let is_edit = function Set_text _ | Set_date _ -> true | Find _ | Search _ -> false

(* The op source of one connection. [conn] selects the connection's
   share: in [edit] each connection edits only its own half of the
   documents, so the two never contend for a lock. In [mixed]
   connection 0 is the editor and connection 1 the reader. *)
let source c ~seed workload ~conn =
  let n = Array.length c.docs in
  let rng =
    Random.State.make [| seed; conn; Hashtbl.hash (workload_name workload) |]
  in
  let read () =
    if Random.State.int rng 100 < 70 then Find (Random.State.int rng n)
    else
      let r = Random.State.int rng 100 in
      let pool =
        if r < 10 || Array.length c.pairs = 0 then c.negatives
        else if r < 55 then c.phrases
        else c.pairs
      in
      Search pool.(Random.State.int rng (Array.length pool))
  in
  match workload with
  | Edit ->
    let half = n / 2 in
    let lo = if conn = 0 then 0 else half in
    let span = if conn = 0 then half else n - half in
    fun () -> Set_text { doc = lo + Random.State.int rng span; text = sentence rng }
  | Browse -> read
  | Mixed ->
    if conn = 0 then fun () ->
      Set_date { doc = Random.State.int rng n; date = date rng }
    else fun () -> Find (Random.State.int rng n)

(* The single-threaded stream the traced passes replay: the two
   connections' sources, interleaved one op each. *)
let stream c ~seed workload ~ops =
  let s0 = source c ~seed workload ~conn:0
  and s1 = source c ~seed workload ~conn:1 in
  Array.init ops (fun i -> if i mod 2 = 0 then s0 () else s1 ())

(* --- the wire form of an op and its expected answer ------------------ *)

let find_class = "Data"

let expected_hits c needle = Hashtbl.find c.expect needle
