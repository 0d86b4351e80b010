type samples = { input : int array; output : float array }

let default_grid_points = 512

let ln2 = log 2.0

type prepared = {
  output : float array;
  groups : int array array;
  kde : Kde.workspace;
  step : float;
  xs : float array array;
  densities : float array array;
  first : int array;
  last : int array;
  marginal : float array;
}

(* Sample indices by input symbol: groups in ascending symbol order,
   indices ascending within each. *)
let group_by_symbol input =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun idx sym ->
      let prev = try Hashtbl.find tbl sym with Not_found -> [] in
      Hashtbl.replace tbl sym (idx :: prev))
    input;
  Hashtbl.fold (fun sym idxs acc -> (sym, Array.of_list (List.rev idxs)) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd |> Array.of_list

let prepare ?(grid_points = default_grid_points) s =
  assert (Array.length s.input = Array.length s.output);
  assert (Array.length s.input > 0);
  let output = s.output in
  let lo = Tp_util.Stats.min output and hi = Tp_util.Stats.max output in
  (* Pad the grid so Gaussian tails are integrated; degenerate ranges
     get a symmetric unit pad. *)
  let pad = if hi > lo then 0.1 *. (hi -. lo) else 1.0 in
  let grid = { Kde.lo = lo -. pad; hi = hi +. pad; points = grid_points } in
  let groups = group_by_symbol s.input in
  {
    output;
    groups;
    kde = Kde.workspace grid;
    step = Kde.grid_step grid;
    xs = Array.map (fun idxs -> Array.make (Array.length idxs) 0.0) groups;
    densities = Array.map (fun _ -> Array.make grid_points 0.0) groups;
    first = Array.make (Array.length groups) 0;
    last = Array.make (Array.length groups) 0;
    marginal = Array.make grid_points 0.0;
  }

let evaluate ?perm p =
  Option.iter (fun perm -> assert (Array.length perm = Array.length p.output)) perm;
  let k = Array.length p.groups in
  if k < 2 then 0.0
  else begin
    let w = 1.0 /. float_of_int k in
    let marginal = p.marginal in
    Array.fill marginal 0 (Array.length marginal) 0.0;
    for g = 0 to k - 1 do
      let idxs = p.groups.(g) and xs = p.xs.(g) in
      (match perm with
      | None ->
          for j = 0 to Array.length idxs - 1 do
            xs.(j) <- p.output.(idxs.(j))
          done
      | Some perm ->
          for j = 0 to Array.length idxs - 1 do
            xs.(j) <- p.output.(perm.(idxs.(j)))
          done);
      let d = p.densities.(g) in
      let first, last = Kde.estimate_into p.kde xs ~into:d in
      p.first.(g) <- first;
      p.last.(g) <- last;
      for y = first to last do
        marginal.(y) <- marginal.(y) +. (w *. d.(y))
      done
    done;
    (* A plain loop (no closure) keeps the accumulator unboxed. *)
    let mi = ref 0.0 in
    for g = 0 to k - 1 do
      let d = p.densities.(g) in
      for y = p.first.(g) to p.last.(g) do
        let fi = d.(y) and f = marginal.(y) in
        if fi > 1e-300 && f > 1e-300 then
          mi := !mi +. (w *. fi *. (log (fi /. f) /. ln2) *. p.step)
      done
    done;
    (* Numerical integration can produce tiny negatives; MI is >= 0. *)
    Stdlib.max 0.0 !mi
  end

let estimate ?grid_points s = evaluate (prepare ?grid_points s)

let bits_to_millibits b = 1000.0 *. b
