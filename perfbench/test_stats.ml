(* Unit checks of the benchmark's percentile and self-time arithmetic. *)

let close_to what want got =
  if Float.abs (want -. got) > 1e-9 then
    failwith (Printf.sprintf "%s: want %g, got %g" what want got)

let () =
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  close_to "median of odd count" 3.0 (Stats.median a);
  close_to "p0 is the minimum" 1.0 (Stats.percentile a 0.0);
  close_to "p100 is the maximum" 5.0 (Stats.percentile a 100.0);
  close_to "p25 falls on a rank" 2.0 (Stats.percentile a 25.0);
  close_to "p90 interpolates" 4.6 (Stats.percentile a 90.0);
  close_to "median of even count" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  close_to "one sample" 7.0 (Stats.percentile [| 7.0 |] 99.0);
  close_to "no samples" 0.0 (Stats.median [||]);
  (* percentile leaves its input unsorted *)
  close_to "input untouched" 5.0 a.(0);
  let s = Stats.samples () in
  for i = 1 to 3000 do
    Stats.add s (float_of_int i)
  done;
  assert (Stats.count s = 3000);
  close_to "p99 of 1..3000" 2970.01 (Stats.percentile (Stats.to_array s) 99.0);
  close_to "self time" 30.0 (Stats.self_time ~outer:100.0 ~inner:70.0);
  close_to "thin layer may be negative" (-0.5)
    (Stats.self_time ~outer:10.0 ~inner:10.5);
  let sum, rest = Stats.closure ~layers:[ 10.0; 20.0; 30.0 ] ~e2e:65.0 in
  close_to "closure sum" 60.0 sum;
  close_to "unattributed" 5.0 rest
