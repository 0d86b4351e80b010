open Tp_kernel

let symbols = 8

let page = Tp_hw.Defs.page_size

(* One representative page per bank out of a buffer (the attacker
   derives the bank mapping by timing, as in DRAMA; here we read it
   off the model). *)
let page_per_bank cfg vspace ~buf ~buf_pages ~banks =
  let chosen = Array.make banks (-1) in
  for i = buf_pages - 1 downto 0 do
    let va = buf + (i * page) in
    let paddr = System.translate vspace va in
    chosen.(Tp_hw.Dram.bank_of cfg ~paddr) <- va
  done;
  assert (Array.for_all (fun va -> va >= 0) chosen);
  chosen

let run b ~samples ~rng =
  let sys = b.Boot.sys in
  let p = System.platform sys in
  let cfg = p.Tp_hw.Platform.dram in
  let banks = cfg.Tp_hw.Dram.banks in
  (* Enough pages to be sure of hitting every bank. *)
  let buf_pages = 16 * banks in
  let d0 = b.Boot.domains.(0) and d1 = b.Boot.domains.(1) in
  let s_buf = Boot.alloc_pages b d0 ~pages:buf_pages in
  let r_buf = Boot.alloc_pages b d1 ~pages:buf_pages in
  let s_pages = page_per_bank cfg d0.Boot.dom_vspace ~buf:s_buf ~buf_pages ~banks in
  let r_pages = page_per_bank cfg d1.Boot.dom_vspace ~buf:r_buf ~buf_pages ~banks in
  (* DRAMA-style: every probe line is clflushed after use, so each
     access reaches the DRAM and reads back the bank's row state. *)
  let sender ctx sym =
    for bk = 0 to sym - 1 do
      Uctx.read ctx s_pages.(bk);
      Uctx.clflush ctx s_pages.(bk)
    done;
    Uctx.idle_rest ctx
  in
  (* The receiver cannot pre-warm a page's TLB entry without also
     opening its own row in that bank (page ⊂ row), so it reports the
     summed raw latencies: the TLB-walk component is a per-scenario
     constant and only the per-bank row hit/miss spread carries
     information. *)
  let receiver ctx =
    let t0 = Uctx.now ctx in
    for bk = 0 to banks - 1 do
      (* If the sender opened its row in this bank, this access pays
         the precharge+activate penalty; it also re-installs our row
         so an untouched bank reads fast next time. *)
      Uctx.read ctx r_pages.(bk)
    done;
    let total = Uctx.now ctx - t0 in
    for bk = 0 to banks - 1 do
      Uctx.clflush ctx r_pages.(bk)
    done;
    Some (float_of_int total)
  in
  let spec =
    { (Harness.default_spec p) with Harness.samples; symbols; noise_sigma = 0.4 }
  in
  let r = Harness.run_pair_result b ~sender ~receiver spec ~rng in
  Tp_channel.Leakage.test ~rng r.Harness.data
