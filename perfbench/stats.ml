(* Sample arithmetic shared by the benchmark and its unit checks. *)

(* A growable float buffer: the load generator records one latency per
   request without knowing the count in advance. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* [percentile a p] for [p] in [0, 100]: linear interpolation between
   the closest ranks of the sorted samples (rank [p/100 * (n-1)]), the
   same rule as numpy's default. 0.0 for no samples. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = sorted a in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median a = percentile a 50.0

(* Self time of a layer: the per-request median of the pass that enters
   the stack at that layer, minus the per-request median of the pass
   that enters one layer deeper. It can come out slightly negative when
   the layer is thin and the two passes differ only by noise; it is
   reported as measured. *)
let self_time ~outer ~inner = outer -. inner

(* Accounting closure: the layer self times should sum to the
   end-to-end median; what they do not explain is reported as the
   unattributed remainder (medians do not add exactly, and the passes
   run at different moments). *)
let closure ~layers ~e2e =
  let sum = List.fold_left ( +. ) 0.0 layers in
  (sum, e2e -. sum)
