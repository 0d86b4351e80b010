type side = {
  scenario : string;
  matrix : Tp_channel.Matrix.t;
  leak : Tp_channel.Leakage.result;
  capacity_bits : float;
  degraded : bool;
}

type result = { platform : string; coloured_only : side; protected_ : side }

let run_side q ~seed kind p =
  let rng = Tp_util.Rng.create ~seed in
  let b = Scenario.boot kind p in
  let sender, receiver = Tp_attacks.Kernel_chan.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = Quality.samples q;
      symbols = Tp_attacks.Kernel_chan.symbols;
      slice_cycles = Tp_attacks.Kernel_chan.slice_cycles p;
    }
  in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  let samples = r.Tp_attacks.Harness.data in
  let leak = Tp_channel.Leakage.test ~rng samples in
  {
    scenario = Scenario.name kind;
    matrix = Tp_channel.Matrix.of_samples samples;
    leak;
    capacity_bits = Tp_channel.Capacity.of_samples samples;
    degraded = r.Tp_attacks.Harness.degraded;
  }

let run q ~seed p =
  (* The two sides are independent trials (own boot, own seed): fan
     them out on the pool. *)
  let sides =
    Tp_par.Pool.run 2 (fun i ->
        if i = 0 then run_side q ~seed Scenario.Coloured_only p
        else run_side q ~seed:(seed + 1) Scenario.Protected p)
  in
  {
    platform = p.Tp_hw.Platform.name;
    coloured_only = sides.(0);
    protected_ = sides.(1);
  }
