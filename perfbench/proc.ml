(* The `seed serve` process under test: started directly from the built
   binary (no build tooling in the timed path) on an ephemeral port,
   stopped with SIGTERM so it drains and flushes like in production. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  pid : int;
  port : int;
  setup_s : float;  (** spawn to the `serving` line *)
  out : in_channel;
}

(* Every server this process started, so an aborted run still stops
   them. *)
let live : t list ref = ref []

let parse_port line =
  (* "seed: serving DIR on HOST:PORT (session ttl ...)" *)
  match String.rindex_opt line ':' with
  | None -> None
  | Some i ->
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let digits =
      match String.index_opt rest ' ' with
      | Some j -> String.sub rest 0 j
      | None -> rest
    in
    int_of_string_opt digits

let rec read_line_before fd ic deadline =
  let left = deadline -. now () in
  if left <= 0.0 then None
  else
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> None
    | _ -> ( try Some (input_line ic) with End_of_file -> None)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_line_before fd ic deadline

let wait_exit pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let start ~exe ~dir ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; dir; "--port"; "0" |]
      devnull w err
  in
  Unix.close w;
  Unix.close devnull;
  Unix.close err;
  let ic = Unix.in_channel_of_descr r in
  let deadline = t0 +. 60.0 in
  let rec await () =
    match read_line_before r ic deadline with
    | None -> None
    | Some line ->
      let words = String.split_on_char ' ' line in
      if List.mem "serving" words then parse_port line else await ()
  in
  match await () with
  | Some port ->
    let t = { pid; port; setup_s = now () -. t0; out = ic } in
    live := t :: !live;
    t
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    wait_exit pid;
    close_in_noerr ic;
    failwith ("seed serve did not report serving; see " ^ log)

(* Peak resident set of the server (VmHWM), in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> 0.0
      in
      find ())

(* Wait up to [timeout] seconds for the process to exit: its status,
   or [None] if it is still running. *)
let wait_exit_within pid timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () < deadline then begin
        Unix.sleepf 0.01;
        go ()
      end
      else None
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* SIGTERM: the server drains, flushes and exits; wait for it, and kill
   it if it has not exited within 60 s. Its last lines ("draining",
   "stopped") fit in the pipe, so it never blocks writing them. [None]
   when it drained and exited with code 0, else what happened. *)
let stop t =
  live := List.filter (fun u -> u != t) !live;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let problem =
    match wait_exit_within t.pid 60.0 with
    | Some (Unix.WEXITED 0) -> None
    | Some (Unix.WEXITED c) -> Some (Printf.sprintf "server exited with code %d" c)
    | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Some (Printf.sprintf "server ended by signal %d" n)
    | None ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      wait_exit t.pid;
      Some "server did not drain within 60 s"
  in
  close_in_noerr t.out;
  problem

(* SIGKILL, for a server that holds no data and only had its set-up
   timed. `seed serve` prints its serving line before it installs its
   SIGTERM handler, so a SIGTERM sent as soon as the line appears can
   end it undrained; SIGKILL does not depend on that window. *)
let kill t =
  live := List.filter (fun u -> u != t) !live;
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_exit t.pid;
  close_in_noerr t.out

let kill_all () = List.iter kill !live
