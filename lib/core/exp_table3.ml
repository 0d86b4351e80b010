type cell = {
  scenario : string;
  leak : Tp_channel.Leakage.result;
  degraded : bool;
}

type row = { channel : string; cells : cell list }

type result = { platform : string; rows : row list }

let measure q ~seed kind p (chan : Tp_attacks.Cache_channels.t) =
  let rng = Tp_util.Rng.create ~seed in
  let b = Scenario.boot kind p in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = Quality.samples q;
      symbols = chan.Tp_attacks.Cache_channels.symbols;
    }
  in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  {
    scenario = Scenario.name kind;
    leak = Tp_channel.Leakage.test ~rng r.data;
    degraded = r.degraded;
  }

let run q ~seed p =
  let chans = Tp_attacks.Cache_channels.all p in
  let scenarios_for name =
    Scenario.table3_set
    @
    (* The paper's diagnosis of the x86 L2 residual channel:
       disabling the prefetcher (§5.3.2). *)
    if name = "L2" && p.Tp_hw.Platform.prefetcher_slots > 0 then
      [ Scenario.Protected_no_prefetcher ]
    else []
  in
  (* Flatten the channel x scenario grid into independent trials (each
     boots its own system and derives its seed from its grid position),
     fan out on the pool, then regroup in grid order. *)
  let units =
    List.concat
      (List.mapi
         (fun i chan ->
           List.mapi
             (fun j kind -> (i, chan, j, kind))
             (scenarios_for chan.Tp_attacks.Cache_channels.name))
         chans)
  in
  let cells =
    Tp_par.Pool.map_list units (fun _ (i, chan, j, kind) ->
        measure q ~seed:(seed + (i * 13) + j) kind p chan)
  in
  let tagged = List.combine units cells in
  let rows =
    List.mapi
      (fun i chan ->
        {
          channel = chan.Tp_attacks.Cache_channels.name;
          cells =
            List.filter_map
              (fun ((i', _, _, _), c) -> if i' = i then Some c else None)
              tagged;
        })
      chans
  in
  { platform = p.Tp_hw.Platform.name; rows }
