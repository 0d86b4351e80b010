type kind =
  | Raw
  | Full_flush
  | Protected
  | Coloured_only
  | Protected_no_pad
  | Protected_no_prefetcher
  | Cat_llc

let name = function
  | Raw -> "raw"
  | Full_flush -> "full flush"
  | Protected -> "protected"
  | Coloured_only -> "coloured userland only"
  | Protected_no_pad -> "protected (no pad)"
  | Protected_no_prefetcher -> "protected (prefetcher off)"
  | Cat_llc -> "CAT way-partitioned LLC"

let slugs =
  [
    ("raw", Raw);
    ("full-flush", Full_flush);
    ("protected", Protected);
    ("coloured-only", Coloured_only);
    ("no-pad", Protected_no_pad);
    ("no-prefetcher", Protected_no_prefetcher);
    ("cat-llc", Cat_llc);
  ]

let slug kind = fst (List.find (fun (_, k) -> k = kind) slugs)

let config kind p =
  let open Tp_kernel in
  match kind with
  | Raw -> Config.raw
  | Full_flush -> Config.full_flush p
  | Protected -> Config.protected_ p
  | Coloured_only -> { Config.raw with Config.colour_user = true }
  | Protected_no_pad -> { (Config.protected_ p) with Config.pad_cycles = 0 }
  | Protected_no_prefetcher ->
      { (Config.protected_ p) with Config.disable_prefetcher = true }
  | Cat_llc -> { Config.raw with Config.cat_llc = true }

let boot ?colour_percent ?(domains = 2) kind p =
  Tp_kernel.Boot.boot ?colour_percent ~domains ~platform:p ~config:(config kind p)
    ()

let table3_set = [ Raw; Full_flush; Protected ]
