type grid = { lo : float; hi : float; points : int }

let grid_step g =
  assert (g.points > 1);
  (g.hi -. g.lo) /. float_of_int (g.points - 1)

let grid_position g i = g.lo +. (float_of_int i *. grid_step g)

(* Silverman's rule on [xs], which it sorts in place: the standard
   deviation is taken first, in sample order, and both quartiles then
   come from the one sorted array. *)
let silverman_sorting xs =
  let n = Array.length xs in
  assert (n > 0);
  if n = 1 then 0.0
  else begin
    let sd = Tp_util.Stats.std xs in
    Array.sort Float.compare xs;
    let iqr =
      Tp_util.Stats.percentile_sorted xs 75.0
      -. Tp_util.Stats.percentile_sorted xs 25.0
    in
    let spread =
      if iqr > 0.0 then Stdlib.min sd (iqr /. 1.34)
      else sd (* discrete-ish data: fall back to sd alone *)
    in
    0.9 *. spread *. (float_of_int n ** -0.2)
  end

let silverman_bandwidth samples = silverman_sorting (Array.copy samples)

type workspace = { grid : grid; step : float; mutable kernel : float array }

let workspace grid = { grid; step = grid_step grid; kernel = [||] }

let estimate_into ws ?bandwidth xs ~into =
  let g = ws.grid and step = ws.step in
  let n = Array.length xs in
  assert (n > 0);
  assert (Array.length into = g.points);
  let h =
    match bandwidth with
    | Some h ->
        Array.sort Float.compare xs;
        Stdlib.max h step
    | None -> Stdlib.max (silverman_sorting xs) step
  in
  (* Bin the samples onto the grid (nearest grid position, clamped).
     Round half-up via floor(q + 0.5): Float.round rounds halves away
     from zero, so a sample below [lo] landing on a -0.5 boundary would
     truncate differently from one above it — floor keeps the
     nearest-index rule uniform over the whole (pre-clamp) axis.  The
     bin index is monotone in the sample, so over the sorted [xs] each
     bin's samples form one run and the runs come in ascending bin
     order. *)
  let bin x =
    let q = (x -. g.lo) /. step in
    let i = int_of_float (Float.floor (q +. 0.5)) in
    if i < 0 then 0 else if i >= g.points then g.points - 1 else i
  in
  (* Half the kernel: the Gaussian is even and float(-m)*step/h is
     exactly -(m*step/h), so offsets -m and +m share one [exp]. *)
  let half_window = int_of_float (Float.ceil (4.0 *. h /. step)) in
  let norm = 1.0 /. (h *. sqrt (2.0 *. Float.pi)) in
  if Array.length ws.kernel <= half_window then
    ws.kernel <- Array.make (half_window + 1) 0.0;
  let kernel = ws.kernel in
  for m = 0 to half_window do
    let d = float_of_int m *. step /. h in
    kernel.(m) <- norm *. exp (-0.5 *. d *. d)
  done;
  (* Outside [first, last] no bin's kernel reaches: the density there
     is +0.0, so only this window is cleared and filled. *)
  let first = Stdlib.max 0 (bin xs.(0) - half_window) in
  let last = Stdlib.min (g.points - 1) (bin xs.(n - 1) + half_window) in
  Array.fill into first (last - first + 1) 0.0;
  let nf = float_of_int n in
  let add i c =
    let w = float_of_int c /. nf in
    for j = Stdlib.max 0 (i - half_window) to i - 1 do
      into.(j) <- into.(j) +. (w *. kernel.(i - j))
    done;
    for j = i to Stdlib.min (g.points - 1) (i + half_window) do
      into.(j) <- into.(j) +. (w *. kernel.(j - i))
    done
  in
  let run_bin = ref (bin xs.(0)) and run_count = ref 1 in
  for s = 1 to n - 1 do
    let i = bin xs.(s) in
    if i = !run_bin then incr run_count
    else begin
      add !run_bin !run_count;
      run_bin := i;
      run_count := 1
    end
  done;
  add !run_bin !run_count;
  (first, last)

let estimate g ?bandwidth samples =
  let density = Array.make g.points 0.0 in
  ignore
    (estimate_into (workspace g) ?bandwidth (Array.copy samples) ~into:density);
  density
