(* Record-once / replay-many victim traces.

   A stream records the *identity* of every operation a domain issued
   through the Machine API — not its latency or its cache outcome — as
   fixed-width records in a growable flat Blob.  Replaying re-executes
   the recorded operations against any machine of the same platform,
   so the machine-state evolution (and hence every latency, counter
   and eviction) is exactly what live execution of the same body would
   have produced: bit-identity is by construction, and the replay loop
   is branch-light and allocation-free per op.

   Streams are immutable once recorded (the recorder appends, replay
   only reads), so one stream can be replayed concurrently from many
   domains. *)

(* One record is [tag; w1; w2; w3; w4]. *)
let stride = 5

let tag_read = 0
let tag_write = 1
let tag_fetch = 2
let tag_cond_branch = 3
let tag_jump = 4
let tag_clflush = 5
let tag_add_cycles = 6
let tag_idle = 7

(* Crossed once per replayed stream, so a fault test can strike the
   replay path and prove the trial loop degrades to live execution. *)
let point_step = "replay_step"
let () = Tp_fault.Fault.register point_step

type t = {
  mutable data : Blob.t;
  mutable len : int; (* words in use *)
  mutable poisoned : bool;
  mutable digest : string option; (* cached; invalidated by appends *)
}

let create ?(initial_ops = 64) () =
  {
    data = Blob.create (stride * max 1 initial_ops);
    len = 0;
    poisoned = false;
    digest = None;
  }

let clear t =
  t.len <- 0;
  t.poisoned <- false;
  t.digest <- None

let length t = t.len / stride
let poison t =
  t.poisoned <- true;
  t.digest <- None
let poisoned t = t.poisoned

(* A usable stream is an unpoisoned one that ends in the idle marker:
   the recorded body ran to completion (idled out its slice) rather
   than being cut short by preemption or a kernel fault. *)
let complete t =
  (not t.poisoned)
  && t.len >= stride
  && t.data.{t.len - stride} = tag_idle

let grow t =
  let d = Blob.create (2 * Blob.length t.data) in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.data 0 t.len)
    (Bigarray.Array1.sub d 0 t.len);
  t.data <- d

let append t tag w1 w2 w3 w4 =
  if t.len + stride > Blob.length t.data then grow t;
  let d = t.data and off = t.len in
  d.{off} <- tag;
  d.{off + 1} <- w1;
  d.{off + 2} <- w2;
  d.{off + 3} <- w3;
  d.{off + 4} <- w4;
  t.len <- t.len + stride;
  t.digest <- None

let append_access t ~kind ~vaddr ~paddr ~root_pa ~leaf_pa =
  let tag =
    match kind with
    | Defs.Read -> tag_read
    | Defs.Write -> tag_write
    | Defs.Fetch -> tag_fetch
  in
  append t tag vaddr paddr root_pa leaf_pa

let append_cond_branch t ~vaddr ~paddr ~taken =
  append t tag_cond_branch vaddr paddr (if taken then 1 else 0) 0

let append_jump t ~vaddr ~paddr ~target = append t tag_jump vaddr paddr target 0
let append_clflush t ~paddr = append t tag_clflush paddr 0 0 0
let append_add_cycles t n = append t tag_add_cycles n 0 0 0
let append_idle t = append t tag_idle 0 0 0 0

let digest t =
  match t.digest with
  | Some d -> d
  | None ->
      let d =
        (if t.poisoned then "poisoned:" else "")
        ^ Blob.digest_sub t.data ~len:t.len
      in
      t.digest <- Some d;
      d

let replay m ~core ~asid ~llc_ways ~until ?on_latency t =
  Tp_fault.Fault.hit point_step;
  let data = t.data in
  let note = match on_latency with None -> ignore | Some f -> f in
  let n = t.len in
  let i = ref 0 in
  let res = ref `Incomplete in
  let running = ref true in
  while !running && !i < n do
    let off = !i in
    let tag = data.{off} in
    if tag = tag_idle then begin
      res := `Done_idle;
      running := false
    end
    else begin
      let lat =
        if tag <= tag_fetch then begin
          let kind =
            if tag = tag_read then Defs.Read
            else if tag = tag_write then Defs.Write
            else Defs.Fetch
          in
          (* The walk of a replayed access reads the very PT lines the
             recorder resolved, as the live access did. *)
          Machine.access_pt m ~core ~asid ~global:false ~llc_ways
            ~root_pa:data.{off + 3} ~leaf_pa:data.{off + 4}
            ~vaddr:data.{off + 1} ~paddr:data.{off + 2} ~kind
        end
        else if tag = tag_cond_branch then
          Machine.cond_branch m ~core ~asid ~vaddr:data.{off + 1}
            ~paddr:data.{off + 2}
            ~taken:(data.{off + 3} <> 0)
        else if tag = tag_jump then
          Machine.jump m ~core ~asid ~vaddr:data.{off + 1}
            ~paddr:data.{off + 2} ~target:data.{off + 3}
        else if tag = tag_clflush then
          Machine.clflush m ~core ~paddr:data.{off + 1}
        else begin
          Machine.add_cycles m ~core data.{off + 1};
          data.{off + 1}
        end
      in
      note lat;
      i := !i + stride;
      (* The slice-budget check live execution performs after every
         operation (Uctx.post): the op that crosses the boundary still
         runs in full, then execution stops. *)
      if Machine.cycles m ~core >= until then begin
        res := `Budget;
        running := false
      end
    end
  done;
  (!res : [ `Done_idle | `Budget | `Incomplete ])
