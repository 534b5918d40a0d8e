(* `seed serve` under a supervisor: a SIGTERM sent the moment the
   "serving" line appears must drain and stop cleanly, because the
   signal handlers are installed before that line is printed. Runs the
   built binary. *)

(* the CLI sits next to this test in the build tree *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/seed_cli.exe"

let tmp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seed_serve_%d_%d" (Unix.getpid ())
         (Random.State.bits (Random.State.make_self_init ())))
  in
  Unix.mkdir dir 0o755;
  dir

let with_devnull f =
  let fd = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let exit_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_sigterm_right_after_serving () =
  let db = Filename.concat (tmp_dir ()) "db" in
  with_devnull (fun null ->
      let pid = Unix.create_process cli [| cli; "init"; db |] null null null in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, st -> Alcotest.failf "init: %s" (exit_status st));
  (* several rounds: the race only shows when the signal wins *)
  for round = 1 to 10 do
    let rd, wr = Unix.pipe ~cloexec:true () in
    let pid =
      with_devnull (fun null ->
          Unix.create_process cli
            [| cli; "serve"; db; "--port"; "0" |]
            null wr null)
    in
    Unix.close wr;
    (* a watchdog, so a server that ignores the signal fails the test
       instead of hanging it *)
    let finished = Atomic.make false in
    let _watchdog =
      Thread.create
        (fun () ->
          let deadline = Unix.gettimeofday () +. 30. in
          while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
            Thread.delay 0.05
          done;
          if not (Atomic.get finished) then
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        ()
    in
    let ic = Unix.in_channel_of_descr rd in
    let rec await_serving () =
      match In_channel.input_line ic with
      | None -> Alcotest.failf "round %d: no serving line" round
      | Some l when starts_with ~prefix:"seed: serving" l -> ()
      | Some _ -> await_serving ()
    in
    await_serving ();
    Unix.kill pid Sys.sigterm;
    let rest = In_channel.input_all ic in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    Atomic.set finished true;
    Alcotest.(check string)
      (Printf.sprintf "round %d: exit status" round)
      "exit 0" (exit_status status);
    Alcotest.(check bool)
      (Printf.sprintf "round %d: stopped line" round)
      true
      (List.mem "seed: stopped" (String.split_on_char '\n' rest));
    match Seed_storage.Store.fsck db with
    | Ok r ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d: store healthy" round)
        true r.Seed_storage.Store.fsck_healthy
    | Error e ->
      Alcotest.failf "round %d: fsck: %s" round (Seed_util.Seed_error.to_string e)
  done

let () =
  Alcotest.run "serve"
    [
      ( "signals",
        [
          Alcotest.test_case "sigterm right after serving" `Quick
            test_sigterm_right_after_serving;
        ] );
    ]
