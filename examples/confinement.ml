(* The confinement scenario (§3.1.1): a Trojan — malicious confined
   code — tries to leak a secret to a spy over the L1-D cache covert
   channel while they time-share a core.  We run the attack against
   the raw system and against time protection and report the measured
   channel capacity.

   Run with: dune exec examples/confinement.exe *)

open Tp_core

let measure kind =
  let p = Tp_hw.Platform.haswell in
  let b = Scenario.boot kind p in
  let chan = Tp_attacks.Cache_channels.l1d in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = 400;
      symbols = chan.Tp_attacks.Cache_channels.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:2024 in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  Tp_channel.Leakage.test ~rng r.data

let () =
  Format.printf
    "Confinement scenario: a Trojan leaks through the L1-D cache to a spy@.";
  Format.printf
    "(sender encodes 4-bit symbols in the number of cache sets it touches)@.@.";
  let raw = measure Scenario.Raw in
  Format.printf "without time protection: %a@." Tp_channel.Leakage.pp_result raw;
  let prot = measure Scenario.Protected in
  Format.printf "with time protection:    %a@.@." Tp_channel.Leakage.pp_result
    prot;
  (match (raw.Tp_channel.Leakage.verdict, prot.Tp_channel.Leakage.verdict) with
  | Tp_channel.Leakage.Leak, (Tp_channel.Leakage.No_evidence | Tp_channel.Leakage.Negligible) ->
      Format.printf
        "the raw channel carries ~%.1f bits per slice; flushing on-core \
         state on every domain switch closes it.@."
        raw.Tp_channel.Leakage.m
  | _ ->
      Format.printf "unexpected verdict combination — investigate!@.");
  Format.printf "done.@."
