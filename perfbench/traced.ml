(* The traced, in-process run. The workload's request stream is replayed
   single-threaded, once per pass, each pass on a fresh copy of the
   prepared store and each entering the stack one layer deeper through
   public functions:

     P1  client Wire/Frame encode -> Net_server.on_frame -> decode
     P2  what Net_server dispatches to: Server.checkout_lease /
         Server.checkin, or Server.snapshot + View.resolve_name /
         Query.select
     P3  Database.set_value (in a transaction), then
         Persist.Session.flush; reads as in P2 on Database.snapshot_view
     P4  P3 with the text index disabled (write workloads only)

   P1 also runs once untraced (only the per-op time is taken), so the
   tracing overhead is measured. Every pass applies the same ops to the
   same starting store and so reaches the same states. A pass keeps its
   spans in memory and writes them out when it ends. *)

open Seed_schema
module Wire = Seed_net.Wire
module Frame = Seed_net.Frame
module Net_server = Seed_net.Net_server
module Server = Seed_server.Server
module Protocol = Seed_server.Protocol
module DB = Seed_core.Database
module View = Seed_core.View
module Query = Seed_core.Query
module Session = Seed_core.Persist.Session
module Commit_daemon = Seed_storage.Commit_daemon

let now = Proc.now

(* --- spans ------------------------------------------------------------- *)

type span = {
  id : int;
  req : int;  (** index of the op in the stream *)
  parent : int;  (** -1 for an op's root span *)
  name : string;
  t0 : float;
  t1 : float;
}

type tracer = {
  pass : string;
  detail : bool;  (** record child spans (traced) or only op roots *)
  mutable next_id : int;
  mutable spans : span list;
}

let tracer ~pass ~detail = { pass; detail; next_id = 0; spans = [] }

let fresh_id tr =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  id

(* An op's root span; [f] gets the root's id to parent its children. *)
let root tr ~req f =
  let id = fresh_id tr in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  tr.spans <- { id; req; parent = -1; name = "op"; t0; t1 } :: tr.spans;
  r

let span tr ~req ~parent name f =
  if not tr.detail then f ()
  else begin
    let id = fresh_id tr in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    tr.spans <- { id; req; parent; name; t0; t1 } :: tr.spans;
    r
  end

(* Per-op duration (us) of the spans named [name], summed within each
   op; ops without such a span are absent. *)
let per_op tr name =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if String.equal s.name name then
        let d = (s.t1 -. s.t0) *. 1e6 in
        Hashtbl.replace h s.req
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt h s.req)))
    tr.spans;
  h

(* --- passes ------------------------------------------------------------- *)

type pass = {
  tr : tracer;
  open_s : float;
  ops_done : int;  (** ops replayed before the deadline *)
  failed : int;  (** wrong answers *)
  counters : (string * float) list;  (** deltas and gauges of the pass *)
}

(* Apply [f] to the ops in order until [budget] seconds have passed
   since the first; the number applied. *)
let replay ops ~budget f =
  let n = Array.length ops in
  let until = now () +. budget in
  let rec go i =
    if i < n && now () < until then begin
      f i ops.(i);
      go (i + 1)
    end
    else i
  in
  go 0

let ttl = 30.0
let client = "trace"

let fail_unless b failed = if not b then incr failed

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* Open a fresh copy of the prepared store and run [f] over it. *)
let with_store ~work ~prepared f =
  let dir = Filename.concat work "trace-store" in
  Prep.copy_dir prepared dir;
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let t0 = now () in
  let s = Prep.ok "open" (Session.open_ ~dir ()) in
  let open_s = now () -. t0 in
  Gc.full_major ();
  let live_mb =
    float_of_int (((Gc.stat ()).Gc.live_words - live0) * (Sys.word_size / 8))
    /. 1048576.0
  in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () -> f ~dir ~open_s ~live_mb s)

let names v items =
  List.sort String.compare (List.filter_map (View.full_name v) items)

let p1 ~detail ~work ~prepared (corpus : Gen.corpus) ops ~budget =
  with_store ~work ~prepared (fun ~dir:_ ~open_s ~live_mb s ->
      let tr = tracer ~pass:(if detail then "P1" else "P1-untraced") ~detail in
      let core = Net_server.create (Server.of_session s) in
      let conn = Net_server.open_conn core in
      let req_bytes = ref 0 and resp_bytes = ref 0 and frames = ref 0 in
      let next_id = ref 1L in
      let send ~req ~parent body =
        let req_id = !next_id in
        next_id := Int64.succ req_id;
        let frame =
          span tr ~req ~parent "wire.encode" (fun () ->
              Frame.encode (Wire.encode_request { Wire.req_id; body }))
        in
        let action =
          span tr ~req ~parent "net_server.on_frame" (fun () ->
              Net_server.on_frame core conn frame)
        in
        match action with
        | Net_server.Reply r | Net_server.Reply_close r ->
          req_bytes := !req_bytes + String.length frame;
          resp_bytes := !resp_bytes + String.length r;
          incr frames;
          span tr ~req ~parent "wire.decode" (fun () ->
              match Frame.decode r with
              | Error _ -> None
              | Ok p -> (
                match Wire.decode_response p with
                | Ok { Wire.rbody; _ } -> Some rbody
                | Error _ -> None))
        | Net_server.Close -> None
      in
      let failed = ref 0 in
      fail_unless
        (match
           send ~req:(-1) ~parent:(-1)
             (Wire.Hello { protocol = Frame.version; client; resume = None })
         with
        | Some (Wire.Welcome _) -> true
        | _ -> false)
        failed;
      let minor0, major0 = gc_words () in
      let ops_done =
        replay ops ~budget (fun req op ->
            root tr ~req (fun parent ->
                List.iter
                  (fun (body, want) ->
                    fail_unless (send ~req ~parent body = Some want) failed)
                  (E2e.requests corpus op)))
      in
      let minor1, major1 = gc_words () in
      let n = float_of_int (max 1 ops_done) in
      {
        tr;
        open_s;
        ops_done;
        failed = !failed;
        counters =
          [
            ("gc.live_mb_after_open", live_mb);
            ( "gc.minor_mb_per_req",
              (minor1 -. minor0) *. float_of_int (Sys.word_size / 8) /. 1048576.0 /. n );
            ("gc.major_per_kreq", float_of_int (major1 - major0) *. 1000.0 /. n);
            ("wire.req_bytes", float_of_int !req_bytes /. float_of_int (max 1 !frames));
            ("wire.resp_bytes", float_of_int !resp_bytes /. float_of_int (max 1 !frames));
          ];
      })

(* The read calls Net_server makes for a find and for a search, on the
   view [v], each in its span. *)
let find tr ~req ~parent (corpus : Gen.corpus) v i =
  span tr ~req ~parent "view.resolve" (fun () ->
      Option.bind
        (View.resolve_name v corpus.Gen.docs.(i).Gen.name)
        (View.class_path_of v))
  = Some Gen.find_class

let search tr ~req ~parent v needle =
  span tr ~req ~parent "query.search" (fun () ->
      names v (Query.select v (Query.matches "" [ needle ])))

let p2 ~work ~prepared (corpus : Gen.corpus) ops ~budget =
  with_store ~work ~prepared (fun ~dir:_ ~open_s ~live_mb:_ s ->
      let tr = tracer ~pass:"P2" ~detail:true in
      let eng = Server.of_session s in
      let failed = ref 0 in
      let waiters = ref 0 in
      let name i = corpus.Gen.docs.(i).Gen.name in
      let edit ~req ~parent doc path value =
        let locked =
          span tr ~req ~parent "lock_table.checkout" (fun () ->
              Server.checkout_lease eng ~client ~ttl ~names:[ name doc ])
        in
        waiters := max !waiters (Server.lock_stats eng).Seed_server.Lock_table.waiters;
        let ok =
          span tr ~req ~parent "server.checkin" (fun () ->
              Server.checkin eng ~client
                [ Protocol.Set_value { path = name doc ^ path; value = Some value } ])
        in
        fail_unless (locked = Ok () && ok = Ok ()) failed
      in
      let ops_done =
        replay ops ~budget (fun req op ->
          root tr ~req (fun parent ->
              match op with
              | Gen.Set_text { doc; text } ->
                edit ~req ~parent doc ".Description" (Value.String text)
              | Gen.Set_date { doc; date } ->
                edit ~req ~parent doc ".Revised" (Value.Date date)
              | Gen.Find i ->
                fail_unless (find tr ~req ~parent corpus (Server.snapshot eng) i) failed
              | Gen.Search needle ->
                let hits = search tr ~req ~parent (Server.snapshot eng) needle in
                fail_unless (hits = Gen.expected_hits corpus needle) failed))
      in
      {
        tr;
        open_s;
        ops_done;
        failed = !failed;
        counters = [ ("lock_table.waiters", float_of_int !waiters) ];
      })

let sum_stats l =
  List.fold_left (fun acc (_, st) -> Commit_daemon.add_stats acc st)
    Commit_daemon.empty_stats l

(* P3, or P4 with [index = false]. The text-index rebuild is timed at
   the end of P3 (off and back on, twice). *)
let p3 ~index ~work ~prepared (corpus : Gen.corpus) ops ~budget =
  with_store ~work ~prepared (fun ~dir ~open_s ~live_mb:_ s ->
      let tr = tracer ~pass:(if index then "P3" else "P4") ~detail:true in
      let db = Session.db s in
      if not index then DB.set_text_index_enabled db false;
      let failed = ref 0 in
      let name i = corpus.Gen.docs.(i).Gen.name in
      let st0 = DB.stats db in
      let w0 = sum_stats (Session.write_stats s) in
      let rec0 = Session.journal_records s in
      let bytes0 = Prep.dir_bytes dir in
      let flushes = ref 0 in
      let candidates = ref 0 and hits = ref 0 in
      (* the access path of each search, from the planner's own account
         (Database.stats does not see queries made on snapshots) *)
      let indexed = ref 0 and scanned = ref 0 in
      let edit ~req ~parent doc path value =
        let ok =
          match DB.resolve db (name doc ^ path) with
          | None -> false
          | Some id ->
            span tr ~req ~parent "database.set_value" (fun () ->
                DB.with_transaction db (fun () -> DB.set_value db id (Some value)))
            = Ok ()
            && begin
                 incr flushes;
                 span tr ~req ~parent "persist.flush" (fun () -> Session.flush s)
                 = Ok ()
               end
        in
        fail_unless ok failed
      in
      let ops_done =
        replay ops ~budget (fun req op ->
          root tr ~req (fun parent ->
              match op with
              | Gen.Set_text { doc; text } ->
                edit ~req ~parent doc ".Description" (Value.String text)
              | Gen.Set_date { doc; date } ->
                edit ~req ~parent doc ".Revised" (Value.Date date)
              | Gen.Find i ->
                fail_unless (find tr ~req ~parent corpus (DB.snapshot_view db) i) failed
              | Gen.Search needle ->
                let v = DB.snapshot_view db in
                let found = search tr ~req ~parent v needle in
                fail_unless (found = Gen.expected_hits corpus needle) failed;
                (* the planner's own estimate of the candidates it
                   re-tests, outside the timed span *)
                (match Query.explain v (Query.matches "" [ needle ]) with
                | Query.Indexed { est_candidates; _ } ->
                  incr indexed;
                  candidates := !candidates + est_candidates
                | Query.Scan _ ->
                  incr scanned;
                  candidates := !candidates + DB.object_count db);
                hits := !hits + List.length found))
      in
      let st1 = DB.stats db in
      let w1 = sum_stats (Session.write_stats s) in
      let records = Session.journal_records s - rec0 in
      let bytes = Prep.dir_bytes dir - bytes0 in
      let txns = w1.Commit_daemon.submitted - w0.Commit_daemon.submitted in
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      let rebuild =
        if not index then []
        else begin
          let times =
            Array.init 2 (fun _ ->
                let t0 = now () in
                DB.set_text_index_enabled db false;
                DB.set_text_index_enabled db true;
                now () -. t0)
          in
          [ ("text_index.rebuild_s", Stats.median times) ]
        end
      in
      {
        tr;
        open_s;
        ops_done;
        failed = !failed;
        counters =
          rebuild
          @ [
              ("text_index.postings", float_of_int st0.DB.st_text_postings);
              ("text_index.bytes_est", float_of_int st0.DB.st_text_bytes);
              ("query.candidates_per_hit", ratio !candidates !hits);
              ("query.index_hits", float_of_int !indexed);
              ("query.fallbacks", float_of_int !scanned);
              ("persist.items_total", float_of_int st1.DB.st_items_total);
              ("persist.records_per_flush", ratio records !flushes);
              ( "commit_daemon.txns_per_batch",
                ratio txns (w1.Commit_daemon.batches - w0.Commit_daemon.batches) );
              ("commit_daemon.queue_hwm", float_of_int w1.Commit_daemon.queue_hwm);
              ( "commit_daemon.fsyncs_per_txn",
                ratio (w1.Commit_daemon.fsyncs - w0.Commit_daemon.fsyncs) txns );
              ("journal.bytes_per_record", ratio bytes records);
            ];
      })

(* --- passes in their own processes ------------------------------------ *)

(* Each pass runs in a fresh process of this executable, as the server
   does: a pass that followed others in one process would walk a heap
   they had grown and scattered, and the per-item sweeps of the write
   path measure up to twice as slow there. *)

let pass_names workload =
  [ "P1-untraced"; "P1"; "P2"; "P3" ]
  @ match workload with Gen.Edit | Gen.Mixed -> [ "P4" ] | Gen.Browse -> []

let run_pass name ~work ~prepared corpus ops ~budget =
  match name with
  | "P1-untraced" -> p1 ~detail:false ~work ~prepared corpus ops ~budget
  | "P1" -> p1 ~detail:true ~work ~prepared corpus ops ~budget
  | "P2" -> p2 ~work ~prepared corpus ops ~budget
  | "P3" -> p3 ~index:true ~work ~prepared corpus ops ~budget
  | "P4" -> p3 ~index:false ~work ~prepared corpus ops ~budget
  | _ -> invalid_arg ("unknown pass " ^ name)

(* The pass file: its figures, then one line per span. Floats are
   written in hexadecimal so they read back bit for bit. *)
let write_pass path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "pass %s\nopen_s %h\nops_done %d\nfailed %d\n" p.tr.pass
        p.open_s p.ops_done p.failed;
      List.iter (fun (n, v) -> Printf.fprintf oc "counter %s %h\n" n v) p.counters;
      List.iter
        (fun s ->
          Printf.fprintf oc "span %d %d %d %s %h %h\n" s.id s.req s.parent s.name
            s.t0 s.t1)
        (List.rev p.tr.spans))

let read_pass path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let p =
        ref
          {
            tr = tracer ~pass:"" ~detail:true;
            open_s = 0.0;
            ops_done = 0;
            failed = 0;
            counters = [];
          }
      in
      let spans = ref [] in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | [ "pass"; n ] -> p := { !p with tr = tracer ~pass:n ~detail:true }
           | [ "open_s"; v ] -> p := { !p with open_s = float_of_string v }
           | [ "ops_done"; v ] -> p := { !p with ops_done = int_of_string v }
           | [ "failed"; v ] -> p := { !p with failed = int_of_string v }
           | [ "counter"; n; v ] ->
             p := { !p with counters = (n, float_of_string v) :: !p.counters }
           | [ "span"; id; req; parent; name; t0; t1 ] ->
             spans :=
               {
                 id = int_of_string id;
                 req = int_of_string req;
                 parent = int_of_string parent;
                 name;
                 t0 = float_of_string t0;
                 t1 = float_of_string t1;
               }
               :: !spans
           | _ -> failwith ("malformed pass file " ^ path)
         done
       with End_of_file -> ());
      !p.tr.spans <- !spans;
      { !p with counters = List.rev !p.counters })

let max_ops = 20_000

(* The child side: regenerate the corpus and the stream from the seed,
   run one pass over a fresh store copy, write the pass file. *)
let child ~name ~work ~workload ~seed ~docs ~ops ~budget ~out =
  let corpus = Gen.corpus ~seed ~docs in
  let prepared = Prep.prepared ~work corpus in
  let stream = Gen.stream corpus ~seed workload ~ops in
  let budget = if budget > 0.0 then budget else infinity in
  write_pass out (run_pass name ~work ~prepared corpus stream ~budget)

let spawn_pass ~work ~workload ~seed ~docs ~ops ~budget name =
  let out =
    Filename.concat work
      (Printf.sprintf "spans-%s-%d-%s.txt" (Gen.workload_name workload) seed name)
  in
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--pass"; name; "--workload"; Gen.workload_name workload; "--seed";
      string_of_int seed; "--docs"; string_of_int docs; "--ops";
      string_of_int ops; "--budget"; Printf.sprintf "%h" budget; "--out"; out;
    |]
  in
  let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> read_pass out
  | _ -> failwith ("traced pass " ^ name ^ " failed")

(* --- the run ------------------------------------------------------------ *)

type result = {
  ops : Gen.op array;
  passes : pass list;  (** P1-untraced, P1, P2, P3, then P4 if run *)
}

(* [budget] seconds of replay for all passes: the untraced P1 replays
   for its share, and the number of ops it got through is the stream
   length every later pass replays in full. *)
let run ~work ~workload (corpus : Gen.corpus) ~seed ~budget =
  let names = pass_names workload in
  let docs = Array.length corpus.Gen.docs in
  let share = budget /. float_of_int (List.length names) in
  let spawn = spawn_pass ~work ~workload ~seed ~docs in
  let first = spawn ~ops:max_ops ~budget:share (List.hd names) in
  let n = first.ops_done in
  let rest = List.map (spawn ~ops:n ~budget:0.0) (List.tl names) in
  { ops = Gen.stream corpus ~seed workload ~ops:n; passes = first :: rest }
