(* The untraced end-to-end run: the built `seed serve` binary on a fresh
   copy of the prepared store, driven over TCP by this one process with
   two connections (one domain each), every answer checked, then a
   drain, a reopen and a durability check. *)

open Seed_util
open Seed_schema
module Wire = Seed_net.Wire
module Frame = Seed_net.Frame
module Transport = Seed_net.Transport
module Protocol = Seed_server.Protocol
module DB = Seed_core.Database
module Session = Seed_core.Persist.Session
module Store = Seed_storage.Store

let now = Proc.now

(* --- a raw protocol client: no retries, so every refusal is seen ----- *)

type client = { tr : Transport.t; mutable next : int64 }

exception Wire_failure of string

let call c body =
  let req_id = c.next in
  c.next <- Int64.succ req_id;
  let frame = Frame.encode (Wire.encode_request { Wire.req_id; body }) in
  let fail e = raise (Wire_failure (Seed_error.to_string e)) in
  (match c.tr.Transport.send frame with Ok () -> () | Error e -> fail e);
  match c.tr.Transport.recv ~timeout:(Some 30.0) with
  | Error e -> fail e
  | Ok fr -> (
    match Frame.decode fr with
    | Error e -> fail e
    | Ok payload -> (
      match Wire.decode_response payload with
      | Error e -> fail e
      | Ok r when Int64.equal r.Wire.rsp_id req_id -> r.Wire.rbody
      | Ok _ -> raise (Wire_failure "response id mismatch")))

let connect ~port ~name =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let c = { tr = Transport.of_fd fd; next = 1L } in
  match
    call c (Wire.Hello { protocol = Frame.version; client = name; resume = None })
  with
  | Wire.Welcome _ -> c
  | _ -> raise (Wire_failure ("hello refused for " ^ name))

let close c =
  (try ignore (call c Wire.Bye) with Wire_failure _ -> ());
  c.tr.Transport.close ()

(* --- ops as requests, with their answer checks ------------------------ *)

(* The requests an op becomes, and the answer each must get. *)
let requests (corpus : Gen.corpus) op =
  let name i = corpus.Gen.docs.(i).Gen.name in
  let edit doc path value =
    [
      (Wire.Checkout { names = [ name doc ]; wait_timeout = None }, Wire.Done);
      ( Wire.Checkin
          [ Protocol.Set_value { path = name doc ^ path; value = Some value } ],
        Wire.Done );
    ]
  in
  match op with
  | Gen.Set_text { doc; text } -> edit doc ".Description" (Value.String text)
  | Gen.Set_date { doc; date } -> edit doc ".Revised" (Value.Date date)
  | Gen.Find i -> [ (Wire.Find (name i), Wire.Found (Some Gen.find_class)) ]
  | Gen.Search needle ->
    [
      ( Wire.Search { path = ""; needles = [ needle ] },
        Wire.Names (Gen.expected_hits corpus needle) );
    ]

let describe = function
  | Wire.Done -> "Done"
  | Wire.Found None -> "Found nothing"
  | Wire.Found (Some c) -> "Found " ^ c
  | Wire.Names l -> Printf.sprintf "%d names" (List.length l)
  | Wire.Busy _ -> "Busy"
  | Wire.Draining -> "Draining"
  | Wire.Err e -> "Err " ^ e.Wire.message
  | Wire.Welcome _ -> "Welcome"
  | Wire.Stats_reply _ -> "Stats"
  | Wire.Pong -> "Pong"

(* Run an op: [None] when every answer was the expected one, else what
   went wrong. *)
let exec c corpus op =
  List.fold_left
    (fun err (req, want) ->
      match err with
      | Some _ -> err
      | None ->
        let got = call c req in
        if got = want then None
        else Some (Printf.sprintf "got %s, want %s" (describe got) (describe want)))
    None (requests corpus op)

(* --- one connection's loop -------------------------------------------- *)

(* Latencies (us) with the time each op started (or was due, in the
   open loop), so they can be cut into windows. *)
type series = { at : Stats.samples; us : Stats.samples }

let series () = { at = Stats.samples (); us = Stats.samples () }

type conn_result = {
  edits : series;
  finds : series;
  searches : series;
  late : Stats.samples;  (** open loop: send time minus due time, us *)
  mutable attempted : int;
  mutable failed : int;
  mutable acked_count : int;  (** acknowledged edits, warm-up included *)
  mutable errors : string list;  (** the first few failures, newest first *)
  acked : (int, Gen.op) Hashtbl.t;  (** doc -> last acknowledged edit *)
}

let conn_result () =
  {
    edits = series ();
    finds = series ();
    searches = series ();
    late = Stats.samples ();
    attempted = 0;
    failed = 0;
    acked_count = 0;
    errors = [];
    acked = Hashtbl.create 1024;
  }

let record r ~measured op ~err ~at ~us =
  r.attempted <- r.attempted + 1;
  (match err with
  | Some e ->
    r.failed <- r.failed + 1;
    if List.length r.errors < 5 then r.errors <- e :: r.errors
  | None -> (
    match op with
    | Gen.Set_text { doc; _ } | Gen.Set_date { doc; _ } ->
      r.acked_count <- r.acked_count + 1;
      Hashtbl.replace r.acked doc op
    | Gen.Find _ | Gen.Search _ -> ()));
  if measured then begin
    let s =
      match op with
      | Gen.Set_text _ | Gen.Set_date _ -> r.edits
      | Gen.Find _ -> r.finds
      | Gen.Search _ -> r.searches
    in
    Stats.add s.at at;
    Stats.add s.us us
  end

(* Closed loop: the next op goes out when the previous answer is in. *)
let closed_loop c corpus next ~from ~until =
  let r = conn_result () in
  while now () < until do
    let op = next () in
    let t0 = now () in
    let err = exec c corpus op in
    let t1 = now () in
    record r ~measured:(t0 >= from && t1 <= until) op ~err ~at:t0
      ~us:((t1 -. t0) *. 1e6)
  done;
  r

(* The kernel oversleeps by tens of microseconds: the open loop sleeps
   to this much before the due time, then spins. *)
let spin_s = 200e-6

(* Open loop at [rate] ops/s: each op is timed from when it was due, so
   a stall also charges the wait it imposes on the ops queued behind
   it; how late the generator itself sent is recorded apart. *)
let open_loop c corpus next ~rate ~start ~from ~until =
  let r = conn_result () in
  let rec go i =
    let due = start +. (float_of_int i /. rate) in
    if due < until then begin
      let wait = due -. now () -. spin_s in
      if wait > 0.0 then Unix.sleepf wait;
      while now () < due do
        Domain.cpu_relax ()
      done;
      let op = next () in
      let sent = now () in
      let err = exec c corpus op in
      let t1 = now () in
      let measured = due >= from in
      record r ~measured op ~err ~at:due ~us:((t1 -. due) *. 1e6);
      if measured then Stats.add r.late ((sent -. due) *. 1e6);
      go (i + 1)
    end
  in
  go 0;
  r

(* --- durability check -------------------------------------------------- *)

(* Reopen the drained store in-process: every acknowledged edit's last
   value must be there, the object count must be unchanged, and fsck
   must call the store healthy. Returns the mismatches. *)
let verify ~dir (corpus : Gen.corpus) acked =
  let s = Prep.ok "reopen" (Session.open_ ~dir ()) in
  let db = Session.db s in
  let bad = ref [] in
  let complain m = bad := m :: !bad in
  let expect path v =
    match DB.resolve db path with
    | Some id when DB.get_value db id = Some v -> ()
    | _ -> complain ("lost the last acknowledged value of " ^ path)
  in
  Hashtbl.iter
    (fun doc op ->
      let name = corpus.Gen.docs.(doc).Gen.name in
      match op with
      | Gen.Set_text { text; _ } -> expect (name ^ ".Description") (Value.String text)
      | Gen.Set_date { date; _ } -> expect (name ^ ".Revised") (Value.Date date)
      | Gen.Find _ | Gen.Search _ -> ())
    acked;
  if DB.object_count db <> Array.length corpus.Gen.docs then
    complain "object count changed";
  Session.close s;
  (match Store.fsck dir with
  | Ok rep when rep.Store.fsck_healthy -> ()
  | Ok _ -> complain "fsck: store unhealthy"
  | Error e -> complain ("fsck: " ^ Seed_error.to_string e));
  List.rev !bad

(* --- the run ----------------------------------------------------------- *)

type timed = { starts : float array; lat : float array }
(** Ops measured in the window: start (or due) times and latencies. *)

type result = {
  setup_s : float;  (** median of the server starts *)
  setup_runs : float list;
  rss_mb : float;
  from : float;  (** the measured window, on the monotonic clock *)
  window_s : float;
  edits : timed;
  finds : timed;
  searches : timed;
  late : float array;
  attempted : int;
  failed : int;  (** errors, refusals and wrong answers *)
  durability_errors : int;
  busy_rejects : int;
  journal_bytes : int;  (** store growth over the run *)
  acked_edits : int;
  errors : string list;  (** the first failures of each connection *)
}

let reader_rate = 250.0

let run ~exe ~work ~prepared ~workload (corpus : Gen.corpus) ~seed ~seconds ~starts =
  let dir = Filename.concat work "serve-store" in
  let log = Filename.concat work "serve.log" in
  (* set-up is measured over several starts, each on a fresh copy; the
     last server started is the one driven *)
  let start () =
    Prep.copy_dir prepared dir;
    Proc.start ~exe ~dir ~log
  in
  let setups =
    List.init (starts - 1) (fun _ ->
        let p = start () in
        Proc.kill p;
        p.Proc.setup_s)
  in
  let server = start () in
  let setups = server.Proc.setup_s :: setups in
  let before = Prep.dir_bytes dir in
  let c0 = connect ~port:server.Proc.port ~name:"bench-0"
  and c1 = connect ~port:server.Proc.port ~name:"bench-1" in
  let warm = Float.min 1.0 (seconds /. 10.0) in
  let start_t = now () in
  let from = start_t +. warm and until = start_t +. warm +. seconds in
  let src conn = Gen.source corpus ~seed workload ~conn in
  let d0 =
    let next = src 0 in
    Domain.spawn (fun () -> closed_loop c0 corpus next ~from ~until)
  in
  let d1 =
    let next = src 1 in
    match workload with
    | Gen.Mixed ->
      Domain.spawn (fun () ->
          open_loop c1 corpus next ~rate:reader_rate ~start:start_t ~from ~until)
    | Gen.Edit | Gen.Browse ->
      Domain.spawn (fun () -> closed_loop c1 corpus next ~from ~until)
  in
  let r0 = Domain.join d0 and r1 = Domain.join d1 in
  let busy_rejects, stats_failed =
    match call c0 Wire.Stats with
    | Wire.Stats_reply st -> (st.Wire.sv_busy_rejects, 0)
    | _ -> (0, 1)
  in
  close c0;
  close c1;
  let rss_mb = Proc.peak_rss_mb server in
  (* the driven server must drain and exit cleanly *)
  let unclean = Option.to_list (Proc.stop server) in
  let acked = Hashtbl.copy r0.acked in
  Hashtbl.iter (Hashtbl.replace acked) r1.acked;
  let durability_errors = verify ~dir corpus acked in
  let durability_errors = durability_errors @ unclean in
  let cat f = Array.append (Stats.to_array (f r0)) (Stats.to_array (f r1)) in
  let timed f =
    { starts = cat (fun r -> (f r).at); lat = cat (fun r -> (f r).us) }
  in
  {
    setup_s = Stats.median (Array.of_list setups);
    setup_runs = setups;
    rss_mb;
    from;
    window_s = seconds;
    edits = timed (fun r -> r.edits);
    finds = timed (fun r -> r.finds);
    searches = timed (fun r -> r.searches);
    late = cat (fun r -> r.late);
    attempted = r0.attempted + r1.attempted + 1;
    failed = r0.failed + r1.failed + stats_failed;
    durability_errors = List.length durability_errors;
    busy_rejects;
    journal_bytes = Prep.dir_bytes dir - before;
    acked_edits = r0.acked_count + r1.acked_count;
    errors = List.rev r0.errors @ List.rev r1.errors @ durability_errors;
  }
