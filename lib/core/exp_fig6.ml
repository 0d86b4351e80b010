type result = {
  platform : string;
  raw_leak : Tp_channel.Leakage.result;
  protected_leak : Tp_channel.Leakage.result;
  raw_series : (int * float) array;
}

let measure q ~seed kind p =
  let rng = Tp_util.Rng.create ~seed in
  let b = Scenario.boot kind p in
  let sender, receiver = Tp_attacks.Irq_chan.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = Quality.irq_samples q;
      symbols = Tp_attacks.Irq_chan.symbols;
      (* The experiment uses a 10 ms system tick (§5.3.5). *)
      slice_cycles = Tp_hw.Platform.us_to_cycles p 10_000.0;
      noise_sigma = 50.0;
      warmup = 3;
    }
  in
  let samples =
    (Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng).data
  in
  (samples, Tp_channel.Leakage.test ~rng samples)

let run q ~seed p =
  (* Both measures are independent trials (own boot, own seed). *)
  let measures =
    Tp_par.Pool.run 2 (fun i ->
        if i = 0 then measure q ~seed Scenario.Raw p
        else measure q ~seed:(seed + 1) Scenario.Protected p)
  in
  let raw_samples, raw_leak = measures.(0) in
  let _, protected_leak = measures.(1) in
  let raw_series =
    Array.init
      (Array.length raw_samples.Tp_channel.Mi.input)
      (fun k ->
        (raw_samples.Tp_channel.Mi.input.(k), raw_samples.Tp_channel.Mi.output.(k)))
  in
  { platform = p.Tp_hw.Platform.name; raw_leak; protected_leak; raw_series }
