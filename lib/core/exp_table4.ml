type cell = {
  observable : string;
  padded : bool;
  leak : Tp_channel.Leakage.result;
}

type result = {
  platform : string;
  pad_us : float;
  cells : cell list;
  fig5_series : (int * float) array;
}

let measure q ~seed ~padded observable p =
  let rng = Tp_util.Rng.create ~seed in
  let kind = if padded then Scenario.Protected else Scenario.Protected_no_pad in
  let b = Scenario.boot kind p in
  let sender, receiver = Tp_attacks.Flush_chan.prepare observable b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = Quality.samples q;
      symbols = Tp_attacks.Flush_chan.symbols;
    }
  in
  let samples =
    (Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng).data
  in
  (samples, Tp_channel.Leakage.test ~rng samples)

let obs_name = function
  | Tp_attacks.Flush_chan.Online -> "Online"
  | Tp_attacks.Flush_chan.Offline -> "Offline"

let combos =
  [
    (false, Tp_attacks.Flush_chan.Online);
    (false, Tp_attacks.Flush_chan.Offline);
    (true, Tp_attacks.Flush_chan.Online);
    (true, Tp_attacks.Flush_chan.Offline);
  ]

let run q ~seed p =
  (* Each cell boots its own system with a seed derived from its
     position: independent trials, fanned out on the pool. *)
  let measured =
    Tp_par.Pool.map_list combos (fun i (padded, obs) ->
        (padded, obs, measure q ~seed:(seed + i) ~padded obs p))
  in
  let cells =
    List.map
      (fun (padded, obs, (_, leak)) -> { observable = obs_name obs; padded; leak })
      measured
  in
  let fig5 =
    match
      List.find_opt
        (fun (padded, obs, _) ->
          (not padded) && obs = Tp_attacks.Flush_chan.Offline)
        measured
    with
    | Some (_, _, (samples, _)) ->
        Array.init
          (Array.length samples.Tp_channel.Mi.input)
          (fun k ->
            (samples.Tp_channel.Mi.input.(k), samples.Tp_channel.Mi.output.(k)))
    | None -> [||]
  in
  {
    platform = p.Tp_hw.Platform.name;
    pad_us = Tp_kernel.Config.pad_us p;
    cells;
    fig5_series = fig5;
  }
