(* perfbench: the end-to-end benchmark of `seed serve`.

   bash perfbench/run.sh --workload edit|browse|mixed --seed N \
     --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics over TCP; --trace 1 runs a
   shorter end-to-end phase and then the traced in-process passes, and
   reports the per-layer metrics. The last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   --smoke runs every workload on a tiny store for a few seconds and
   checks the output against BENCHMARK.json; --list prints every metric
   with its unit. See perfbench/README.md. *)

let e2e_metrics =
  [
    ("setup_s", "s");
    ("server_rss_mb", "MB");
    ("latency_p50_us", "us");
    ("latency_p90_us", "us");
    ("throughput_per_s", "1/s");
  ]

let layer_metrics =
  [
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.req_bytes", "B");
    ("wire.resp_bytes", "B");
    ("net_server.on_frame_us", "us");
    ("net_server.self_us", "us");
    ("net_server.wait_us", "us");
    ("net_server.busy_rejects", "count");
    ("lock_table.checkout_us", "us");
    ("lock_table.waiters", "count");
    ("server.checkin_us", "us");
    ("server.self_us", "us");
    ("database.set_value_us", "us");
    ("text_index.maint_us", "us");
    ("text_index.rebuild_s", "s");
    ("text_index.postings", "count");
    ("text_index.bytes_est", "B");
    ("view.resolve_us", "us");
    ("query.search_us", "us");
    ("query.candidates_per_hit", "ratio");
    ("query.index_hits", "count");
    ("query.fallbacks", "count");
    ("persist.open_s", "s");
    ("persist.flush_us", "us");
    ("persist.items_total", "count");
    ("persist.records_per_flush", "ratio");
    ("commit_daemon.txns_per_batch", "ratio");
    ("commit_daemon.queue_hwm", "count");
    ("commit_daemon.fsyncs_per_txn", "ratio");
    ("journal.bytes_per_record", "B");
    ("gc.live_mb_after_open", "MB");
    ("gc.minor_mb_per_req", "MB");
    ("gc.major_per_kreq", "count");
  ]

type opts = {
  workload : Gen.workload;
  seed : int;
  seconds : float;
  trace : bool;
  docs : int;
  server : string;
  work : string;
}

(* --- output ---------------------------------------------------------- *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let unit_of name =
  match List.assoc_opt name (e2e_metrics @ layer_metrics) with
  | Some u -> u
  | None -> "-"

let info name v u = say "metric %-32s %16.6f %s" name v u
let metric name v = info name v (unit_of name)

let header o ~rev =
  say
    "# perfbench workload=%s seed=%d seconds=%g trace=%d docs=%d cores=%d \
     ocaml=%s rev=%s sync=Flush_only"
    (Gen.workload_name o.workload) o.seed o.seconds
    (if o.trace then 1 else 0)
    o.docs
    (Domain.recommended_domain_count ())
    Sys.ocaml_version rev

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (n, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v)
          (unit_of n))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* --- end-to-end ------------------------------------------------------- *)

let pct a p = Stats.percentile a p

let cat (a : E2e.timed) (b : E2e.timed) =
  { E2e.starts = Array.append a.E2e.starts b.E2e.starts; lat = Array.append a.E2e.lat b.E2e.lat }

(* The stream the end-to-end latency metrics are taken over: the edits
   on [edit], every read on [browse], the open-loop finds on [mixed]. *)
let timed_stream workload (e : E2e.result) =
  match workload with
  | Gen.Edit -> e.E2e.edits
  | Gen.Browse -> cat e.E2e.finds e.E2e.searches
  | Gen.Mixed -> e.E2e.finds

(* ... and the one throughput is taken over: on [mixed] the editor's,
   since the reader runs at a fixed rate. *)
let throughput_stream workload (e : E2e.result) =
  match workload with
  | Gen.Browse -> cat e.E2e.finds e.E2e.searches
  | Gen.Edit | Gen.Mixed -> e.E2e.edits

(* [f] of the ops started in each of [n] equal windows of the measured
   window. The metrics report the median over the windows: a stall of
   the shared host moves one window, not the figure. *)
let windowed (e : E2e.result) (t : E2e.timed) ~n f =
  let w = e.E2e.window_s /. float_of_int n in
  Array.init n (fun k ->
      let lo = e.E2e.from +. (float_of_int k *. w) in
      let xs = ref [] in
      Array.iteri
        (fun i at -> if at >= lo && at < lo +. w then xs := t.E2e.lat.(i) :: !xs)
        t.E2e.starts;
      f (Array.of_list !xs) w)

(* Ten windows: at 40 s each holds at least 700 ops of every timed
   stream, so a window's p90 has at least 70 samples beyond it. *)
let windows = 10

let e2e_values o (e : E2e.result) =
  let lat = timed_stream o.workload e in
  let median_of name q =
    say "# windows %s: %s" name
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") q)));
    (name, Stats.median q)
  in
  let p50 = windowed e lat ~n:windows (fun xs _ -> Stats.median xs) in
  let p90 = windowed e lat ~n:windows (fun xs _ -> pct xs 90.0) in
  let rate =
    windowed e (throughput_stream o.workload e) ~n:windows (fun xs w ->
        float_of_int (Array.length xs) /. w)
  in
  [
    ("setup_s", e.E2e.setup_s);
    ("server_rss_mb", e.E2e.rss_mb);
    median_of "latency_p50_us" p50;
    median_of "latency_p90_us" p90;
    median_of "throughput_per_s" rate;
  ]

(* The per-operation figures behind the generic metrics, by name. *)
let e2e_report o (e : E2e.result) =
  let per_s (t : E2e.timed) = float_of_int (Array.length t.E2e.lat) /. e.E2e.window_s in
  let lat name (t : E2e.timed) =
    let a = t.E2e.lat in
    if Array.length a > 0 then begin
      info (name ^ "_p50_us") (Stats.median a) "us";
      info (name ^ "_p99_us") (pct a 99.0) "us";
      info (name ^ "_samples") (float_of_int (Array.length a)) "count"
    end
  in
  say "# setup runs (s): %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") e.E2e.setup_runs));
  lat "edit" e.E2e.edits;
  lat "find" e.E2e.finds;
  lat "search" e.E2e.searches;
  (match o.workload with
  | Gen.Edit | Gen.Mixed ->
    info "edits_per_s" (per_s e.E2e.edits) "1/s";
    info "journal_bytes_per_edit"
      (float_of_int e.E2e.journal_bytes /. float_of_int (max 1 e.E2e.acked_edits))
      "B"
  | Gen.Browse -> ());
  (match o.workload with
  | Gen.Browse | Gen.Mixed ->
    info "reads_per_s" (per_s (cat e.E2e.finds e.E2e.searches)) "1/s"
  | Gen.Edit -> ());
  if Array.length e.E2e.late > 0 then begin
    info "generator_late_p50_us" (Stats.median e.E2e.late) "us";
    info "generator_late_p99_us" (pct e.E2e.late 99.0) "us";
    info "generator_late_max_us" (pct e.E2e.late 100.0) "us"
  end;
  List.iter (fun m -> say "# failure: %s" m) e.E2e.errors;
  info "busy_rejects" (float_of_int e.E2e.busy_rejects) "count";
  info "durability_errors" (float_of_int e.E2e.durability_errors) "count";
  info "fail_ratio"
    (float_of_int (e.E2e.failed + e.E2e.durability_errors)
    /. float_of_int (max 1 e.E2e.attempted))
    "ratio"

let e2e_correct o (e : E2e.result) =
  e.E2e.failed = 0 && e.E2e.durability_errors = 0
  && Array.length (timed_stream o.workload e).E2e.lat > 0

(* --- traced ------------------------------------------------------------- *)

let pass_named (r : Traced.result) name =
  List.find (fun p -> String.equal p.Traced.tr.Traced.pass name) r.Traced.passes

let counter (p : Traced.pass) name =
  Option.value ~default:0.0 (List.assoc_opt name p.Traced.counters)

(* Median over the ops satisfying [keep] of the per-op sum of the spans
   named in [names]; 0.0 when no such op has such a span. *)
let med_sum (r : Traced.result) pass names keep =
  let tr = (pass_named r pass).Traced.tr in
  let h = Hashtbl.create 1024 in
  List.iter
    (fun name ->
      Hashtbl.iter
        (fun req d ->
          if req >= 0 && keep r.Traced.ops.(req) then
            Hashtbl.replace h req
              (d +. Option.value ~default:0.0 (Hashtbl.find_opt h req)))
        (Traced.per_op tr name))
    names;
  Stats.median (Array.of_seq (Hashtbl.to_seq_values h))

let med r pass name keep = med_sum r pass [ name ] keep

let timed workload op =
  match (workload, op) with
  | Gen.Edit, op -> Gen.is_edit op
  | Gen.Browse, op -> not (Gen.is_edit op)
  | Gen.Mixed, Gen.Find _ -> true
  | Gen.Mixed, _ -> false

let is_find = function Gen.Find _ -> true | _ -> false
let is_search = function Gen.Search _ -> true | _ -> false

let layer_values o (e : E2e.result) (r : Traced.result) =
  let t = timed o.workload in
  let op pass = med r pass "op" t in
  let e2e_median = Stats.median (timed_stream o.workload e).E2e.lat in
  let on_frame = med r "P1" "net_server.on_frame" t in
  let set_value = med r "P3" "database.set_value" Gen.is_edit in
  let maint =
    match o.workload with
    | Gen.Browse -> 0.0
    | Gen.Edit | Gen.Mixed -> set_value -. med r "P4" "database.set_value" Gen.is_edit
  in
  let opens =
    Array.of_list (List.map (fun p -> p.Traced.open_s) r.Traced.passes)
  in
  let p1 = pass_named r "P1-untraced" and p2 = pass_named r "P2"
  and p3 = pass_named r "P3" in
  let timings =
    [
      ("wire.encode_us", med r "P1" "wire.encode" t);
      ("wire.decode_us", med r "P1" "wire.decode" t);
      ("net_server.on_frame_us", on_frame);
      ("net_server.self_us", Stats.self_time ~outer:on_frame ~inner:(op "P2"));
      ("net_server.wait_us", Stats.self_time ~outer:e2e_median ~inner:(op "P1-untraced"));
      ("lock_table.checkout_us", med r "P2" "lock_table.checkout" Gen.is_edit);
      ("server.checkin_us", med r "P2" "server.checkin" Gen.is_edit);
      ("server.self_us", Stats.self_time ~outer:(op "P2") ~inner:(op "P3"));
      ("database.set_value_us", set_value);
      ("text_index.maint_us", maint);
      ("view.resolve_us", med r "P2" "view.resolve" is_find);
      ("query.search_us", med r "P2" "query.search" is_search);
      ("persist.open_s", Stats.median opens);
      ("persist.flush_us", med r "P3" "persist.flush" Gen.is_edit);
    ]
  in
  let from p names = List.map (fun n -> (n, counter p n)) names in
  let counters =
    from p1
      [
        "wire.req_bytes"; "wire.resp_bytes"; "gc.live_mb_after_open";
        "gc.minor_mb_per_req"; "gc.major_per_kreq";
      ]
    @ [ ("net_server.busy_rejects", float_of_int e.E2e.busy_rejects) ]
    @ from p2 [ "lock_table.waiters" ]
    @ from p3
        [
          "text_index.rebuild_s"; "text_index.postings"; "text_index.bytes_est";
          "query.candidates_per_hit"; "query.index_hits"; "query.fallbacks";
          "persist.items_total";
          "persist.records_per_flush"; "commit_daemon.txns_per_batch";
          "commit_daemon.queue_hwm"; "commit_daemon.fsyncs_per_txn";
          "journal.bytes_per_record";
        ]
  in
  let all = timings @ counters in
  (* in the declared order *)
  List.map (fun (n, _) -> (n, List.assoc n all)) layer_metrics

(* Closure, overhead and the predictions the benchmark was built to
   test; a failed prediction is reported, not tuned away. *)
let trace_report o (e : E2e.result) (r : Traced.result) values =
  let v n = List.assoc n values in
  let t = timed o.workload in
  let e2e_median = Stats.median (timed_stream o.workload e).E2e.lat in
  let engine =
    match o.workload with
    | Gen.Edit -> [ "database.set_value_us"; "persist.flush_us" ]
    | Gen.Browse | Gen.Mixed -> []
  in
  let reads =
    match o.workload with
    | Gen.Edit -> []
    | Gen.Browse | Gen.Mixed ->
      [ ("engine.read_us", med_sum r "P3" [ "view.resolve"; "query.search" ] t) ]
  in
  let parts =
    List.map (fun n -> (n, v n))
      ([ "net_server.wait_us"; "wire.encode_us"; "wire.decode_us";
         "net_server.self_us"; "server.self_us" ]
      @ engine)
    @ reads
  in
  let sum, rest = Stats.closure ~layers:(List.map snd parts) ~e2e:e2e_median in
  say "# stream: %d ops per pass; timed ops: %d" (Array.length r.Traced.ops)
    (List.length (List.filter t (Array.to_list r.Traced.ops)));
  List.iter (fun (n, x) -> say "closure %-28s %14.3f us" n x) parts;
  say "closure %-28s %14.3f us" "sum_of_layers" sum;
  say "closure %-28s %14.3f us" "e2e_median" e2e_median;
  say "closure %-28s %14.3f us (%.1f%% of e2e)" "unattributed" rest
    (if e2e_median > 0.0 then 100.0 *. rest /. e2e_median else 0.0);
  let untraced = med r "P1-untraced" "op" t and traced = med r "P1" "op" t in
  say "overhead P1 median untraced %.3f us, traced %.3f us, overhead %.3f us (%.1f%%)"
    untraced traced (traced -. untraced)
    (if untraced > 0.0 then 100.0 *. (traced -. untraced) /. untraced else 0.0);
  let verdict name holds detail =
    say "prediction %s: %s (%s)" name (if holds then "holds" else "FAILS") detail
  in
  match o.workload with
  | Gen.Edit ->
    let selfs =
      [ "wire.encode_us"; "wire.decode_us"; "net_server.self_us";
        "server.self_us"; "database.set_value_us"; "persist.flush_us" ]
    in
    let top =
      List.fold_left (fun best n -> if v n > v best then n else best)
        (List.hd selfs) selfs
    in
    verdict "persist.flush_us is the largest self time on edit"
      (String.equal top "persist.flush_us")
      (Printf.sprintf "largest is %s = %.1f us" top (v top))
  | Gen.Browse ->
    let names =
      [ "persist.flush_us"; "persist.records_per_flush";
        "commit_daemon.txns_per_batch"; "commit_daemon.fsyncs_per_txn" ]
    in
    verdict "persist.* and commit_daemon.* per-request work is zero on browse"
      (List.for_all (fun n -> v n = 0.0) names)
      (String.concat ", " (List.map (fun n -> Printf.sprintf "%s=%g" n (v n)) names))
  | Gen.Mixed ->
    let maint = v "text_index.maint_us" and sv = v "database.set_value_us" in
    verdict "text_index.maint_us is ~0 on mixed (|maint| <= max(2 us, 10% of set_value))"
      (Float.abs maint <= Float.max 2.0 (0.1 *. sv))
      (Printf.sprintf "maint=%.2f us, set_value=%.2f us" maint sv);
    let p99 = pct e.E2e.finds.E2e.lat 99.0 and resolve = v "view.resolve_us" in
    verdict "find_p99_us on mixed is far (>= 10x) above view.resolve_us"
      (p99 >= 10.0 *. resolve)
      (Printf.sprintf "find_p99=%.1f us, view.resolve=%.2f us, %.0fx" p99 resolve
         (if resolve > 0.0 then p99 /. resolve else 0.0))

(* --- one run ---------------------------------------------------------- *)

let run o ~rev =
  header o ~rev;
  Prep.mkdir_p o.work;
  let t0 = Proc.now () in
  let corpus = Gen.corpus ~seed:o.seed ~docs:o.docs in
  let prepared = Prep.prepared ~work:o.work corpus in
  say "# corpus and prepared store ready in %.2f s (%d docs, %d phrases, %d pairs)"
    (Proc.now () -. t0) o.docs (Array.length corpus.Gen.phrases)
    (Array.length corpus.Gen.pairs);
  let e2e_seconds = if o.trace then Float.max 1.0 (o.seconds /. 2.0) else o.seconds in
  let e =
    E2e.run ~exe:o.server ~work:o.work ~prepared ~workload:o.workload corpus
      ~seed:o.seed ~seconds:e2e_seconds ~starts:(if o.trace then 1 else 3)
  in
  e2e_report o e;
  if not o.trace then begin
    let values = e2e_values o e in
    List.iter (fun (n, x) -> metric n x) values;
    (e2e_correct o e, e.E2e.attempted, e.E2e.failed + e.E2e.durability_errors, values)
  end
  else begin
    let r =
      Traced.run ~work:o.work ~workload:o.workload corpus ~seed:o.seed
        ~budget:(Float.max 1.0 (o.seconds -. e2e_seconds))
    in
    say "# spans written to %s/spans-%s-%d-PASS.txt" o.work
      (Gen.workload_name o.workload) o.seed;
    let values = layer_values o e r in
    List.iter (fun (n, x) -> metric n x) values;
    trace_report o e r values;
    let traced_failed =
      List.fold_left (fun acc p -> acc + p.Traced.failed) 0 r.Traced.passes
    in
    let traced_ops = Array.length r.Traced.ops * List.length r.Traced.passes in
    ( e2e_correct o e && traced_failed = 0 && Array.length r.Traced.ops > 0,
      e.E2e.attempted + traced_ops,
      e.E2e.failed + e.E2e.durability_errors + traced_failed,
      values )
  end

(* --- smoke test ------------------------------------------------------- *)

(* The [(name, unit)] pairs of one section of BENCHMARK.json: every
   ["name": ...] with the ["unit": ...] that follows it on its line. *)
let declared json section ~until =
  let find_from s sub i =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = Option.get (find_from json (Printf.sprintf "%S" section) 0) in
  let stop =
    match until with
    | None -> String.length json
    | Some u ->
      Option.value ~default:(String.length json)
        (find_from json (Printf.sprintf "%S" u) start)
  in
  let body = String.sub json start (stop - start) in
  let quoted_after key i =
    match find_from body (Printf.sprintf "%S: \"" key) i with
    | None -> None
    | Some j ->
      let a = j + String.length key + 5 in
      let b = String.index_from body a '"' in
      Some (String.sub body a (b - a), b)
  in
  let rec all i acc =
    match quoted_after "name" i with
    | None -> List.rev acc
    | Some (name, j) -> (
      match quoted_after "unit" j with
      | Some (u, k) -> all k ((name, u) :: acc)
      | None -> List.rev acc)
  in
  all 0 []

let smoke o ~rev =
  let json =
    In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
  in
  let e2e_decl = declared json "end_to_end" ~until:(Some "per_layer") in
  let layer_decl = declared json "per_layer" ~until:None in
  let ok = ref true in
  let check what b =
    say "smoke %-60s %s" what (if b then "ok" else "FAILED");
    if not b then ok := false
  in
  check "BENCHMARK.json end_to_end matches the emitted metrics"
    (e2e_decl = e2e_metrics);
  check "BENCHMARK.json per_layer matches the emitted metrics"
    (layer_decl = layer_metrics);
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let o = { o with workload; trace } in
          let correct, attempted, failed, values = run o ~rev in
          let want = if trace then layer_metrics else e2e_metrics in
          let tag =
            Printf.sprintf "%s trace=%d" (Gen.workload_name workload)
              (if trace then 1 else 0)
          in
          check (tag ^ ": every answer and durability check passes")
            (correct && failed = 0 && attempted > 0);
          check (tag ^ ": every declared metric is emitted")
            (List.map fst values = List.map fst want);
          check (tag ^ ": every metric is finite")
            (List.for_all (fun (_, x) -> Float.is_finite x) values))
        [ false; true ])
    [ Gen.Edit; Gen.Browse; Gen.Mixed ];
  !ok

(* --- command line ------------------------------------------------------- *)

let usage =
  "perfbench --workload edit|browse|mixed --seed N --seconds S --trace 0|1 \
   [--docs N] [--server EXE] | --smoke | --list"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0
  and trace = ref false and docs = ref 10_000 and server = ref ""
  and smoke_mode = ref false and list_mode = ref false in
  let pass = ref "" and ops = ref 0 and budget = ref 0.0 and out = ref "" in
  let specs =
    [
      ( "--workload",
        Arg.String
          (fun s ->
            match Gen.workload_of_string s with
            | Some w -> workload := Some w
            | None -> raise (Arg.Bad ("unknown workload " ^ s))),
        "edit|browse|mixed" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 end-to-end or per-layer metrics" );
      ("--docs", Arg.Set_int docs, "N store size (default 10000)");
      ("--server", Arg.Set_string server, "EXE the built seed CLI");
      ("--smoke", Arg.Set smoke_mode, " tiny store, every workload, checks");
      ("--list", Arg.Set list_mode, " print every metric with its unit");
      ("--pass", Arg.Set_string pass, "NAME run one traced pass (internal)");
      ("--ops", Arg.Set_int ops, "N ops the pass replays (internal)");
      ("--budget", Arg.Set_float budget, "S replay deadline, 0 = none (internal)");
      ("--out", Arg.Set_string out, "FILE where the pass writes (internal)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let rev = Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_REV") in
  let base workload =
    {
      workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      docs = !docs;
      server = !server;
      work = Filename.concat ".bench_build" "perfbench";
    }
  in
  at_exit Proc.kill_all;
  if !pass <> "" then
    match !workload with
    | None -> exit 2
    | Some w ->
      let o = base w in
      Traced.child ~name:!pass ~work:o.work ~workload:w ~seed:o.seed ~docs:o.docs
        ~ops:!ops ~budget:!budget ~out:!out
  else if !list_mode then begin
    List.iter (fun (n, u) -> say "end_to_end %-32s %s" n u) e2e_metrics;
    List.iter (fun (n, u) -> say "per_layer  %-32s %s" n u) layer_metrics
  end
  else if !server = "" || not (Sys.file_exists !server) then begin
    prerr_endline "perfbench: --server must name the built seed CLI";
    exit 2
  end
  else if !smoke_mode then begin
    let o = { (base Gen.Edit) with docs = 300; seconds = 2.0 } in
    if smoke o ~rev then say "smoke: all checks passed"
    else begin
      say "smoke: FAILED";
      exit 1
    end
  end
  else
    match !workload with
    | None ->
      prerr_endline usage;
      exit 2
    | Some w ->
      let correct, attempted, failed, values = run (base w) ~rev in
      say "%s" (result_json ~correct ~attempted ~failed values)
