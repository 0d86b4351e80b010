open Tp_kernel

type row = {
  which : string;
  direct_us : float;
  indirect_us : float;
  total_us : float;
}

type result = { platform : string; rows : row list }

let page = Tp_hw.Defs.page_size

(* Dirty every line of the L1-D through the kernel window. *)
let dirty_l1 sys ~core =
  let p = System.platform sys in
  let g = p.Tp_hw.Platform.l1d in
  let m = System.machine sys in
  for i = 0 to (g.Tp_hw.Cache.size / g.Tp_hw.Cache.line) - 1 do
    let a = 0x0100_0000 + (i * g.Tp_hw.Cache.line) in
    ignore
      (Tp_hw.Machine.access m ~core ~asid:0 ~global:true ~vaddr:a ~paddr:a
         ~kind:Tp_hw.Defs.Write ())
  done

(* Time one pass of an application over a working set of [bytes]. *)
let pass sys dom ~buf ~bytes =
  let line = (System.platform sys).Tp_hw.Platform.line in
  let m = System.machine sys in
  let vs = dom.Boot.dom_vspace in
  let t0 = System.now sys ~core:0 in
  for i = 0 to (bytes / line) - 1 do
    let vaddr = buf + (i * line) in
    let paddr = System.translate vs vaddr in
    ignore
      (Tp_hw.Machine.access m ~core:0 ~asid:vs.Types.vs_asid ~vaddr ~paddr
         ~kind:Tp_hw.Defs.Read ())
  done;
  System.now sys ~core:0 - t0

let run p =
  let us c = Tp_hw.Platform.cycles_to_us p c in
  let mk_row which ~flush ~ws_bytes =
    (* Fresh system per measurement for a clean worst case. *)
    let b = Boot.boot ~platform:p ~config:Config.raw ~domains:1 () in
    let sys = b.Boot.sys in
    let dom = b.Boot.domains.(0) in
    let buf = Boot.alloc_pages b dom ~pages:(ws_bytes / page) in
    (* Warm the working set (two passes: cold then warm). *)
    ignore (pass sys dom ~buf ~bytes:ws_bytes);
    let warm = pass sys dom ~buf ~bytes:ws_bytes in
    (* Worst-case direct cost: all L1-D lines dirty. *)
    dirty_l1 sys ~core:0;
    let direct = flush sys in
    let cold = pass sys dom ~buf ~bytes:ws_bytes in
    let indirect = max 0 (cold - warm) in
    {
      which;
      direct_us = us direct;
      indirect_us = us indirect;
      total_us = us (direct + indirect);
    }
  in
  (* Each row runs a configuration's switch-flush plan: the platform's
     L1 flush (architected on Arm, the manual sweep on x86), and the
     full-flush scenario's whole hierarchy + TLB + BP. *)
  let plan cfg sys = Domain_switch.flush sys ~core:0 (Config.flush_plan p cfg) in
  let l1_row =
    mk_row "L1 only"
      ~flush:(plan { Config.raw with Config.flush_l1 = true })
      ~ws_bytes:p.Tp_hw.Platform.l1d.Tp_hw.Cache.size
  in
  let full_row =
    mk_row "Full flush"
      ~flush:(plan (Config.full_flush p))
      ~ws_bytes:
        (min p.Tp_hw.Platform.llc.Tp_hw.Cache.size (8 * 1024 * 1024))
  in
  { platform = p.Tp_hw.Platform.name; rows = [ l1_row; full_row ] }
