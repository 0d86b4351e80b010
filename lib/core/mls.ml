open Tp_kernel

type label = int

let apply b ~labels ~pad_cycles =
  assert (Array.length labels = Array.length b.Boot.domains);
  let min_label = Array.fold_left Stdlib.min labels.(0) labels in
  Array.iteri
    (fun i dom ->
      let pad = if labels.(i) > min_label then pad_cycles else 0 in
      Clone.set_pad b.Boot.sys ~image:dom.Boot.dom_kernel_cap ~cycles:pad)
    b.Boot.domains

let padded_fraction ~labels =
  let n = Array.length labels in
  assert (n > 0);
  let min_label = Array.fold_left Stdlib.min labels.(0) labels in
  let padded = Array.fold_left (fun acc l -> if l > min_label then acc + 1 else acc) 0 labels in
  float_of_int padded /. float_of_int n

type result = {
  high_to_low : Tp_channel.Leakage.result;
  low_to_high : Tp_channel.Leakage.result;
}

(* One direction of the flush channel: the sender is always domain 0 of
   the harness, so direction is chosen by which label domain 0 gets. *)
let one_direction ~samples ~seed ~sender_label p =
  let b = Scenario.boot Scenario.Protected_no_pad p in
  let labels =
    match sender_label with
    | `High -> [| 1; 0 |] (* sender = High, receiver = Low *)
    | `Low -> [| 0; 1 |]
  in
  apply b ~labels ~pad_cycles:(Tp_hw.Platform.us_to_cycles p (Config.pad_us p));
  let sender, receiver =
    Tp_attacks.Flush_chan.prepare Tp_attacks.Flush_chan.Offline b
  in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples;
      symbols = Tp_attacks.Flush_chan.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  Tp_channel.Leakage.test ~rng r.Tp_attacks.Harness.data

let demo ?(samples = 400) ~seed p =
  {
    high_to_low = one_direction ~samples ~seed ~sender_label:`High p;
    low_to_high = one_direction ~samples ~seed:(seed + 1) ~sender_label:`Low p;
  }
