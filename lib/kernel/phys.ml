type t = {
  n_frames : int;
  n_colours : int;
  free : bool array;
  mutable n_free : int;
  mutable boot_reserved : bool;
}

let create p =
  let n_frames = p.Tp_hw.Platform.mem_bytes / Tp_hw.Defs.page_size in
  let n_colours = Colour.n_colours p in
  {
    n_frames;
    n_colours;
    free = Array.make n_frames true;
    n_free = n_frames;
    boot_reserved = false;
  }

let n_frames t = t.n_frames
let n_colours t = t.n_colours
let colour_of t f = Colour.colour_of_frame ~n_colours:t.n_colours f

let reserve_boot t ~frames =
  assert (not t.boot_reserved);
  assert (frames <= t.n_frames);
  for f = 0 to frames - 1 do
    assert t.free.(f);
    t.free.(f) <- false
  done;
  t.n_free <- t.n_free - frames;
  t.boot_reserved <- true;
  0

let () =
  List.iter Tp_fault.Fault.register [ "phys.alloc"; "phys.alloc_many"; "phys.free" ]

let alloc t ?(colours = -1) () =
  Tp_fault.Fault.hit "phys.alloc";
  (* colours = -1 means "any colour" (all bits set). *)
  let rec scan f =
    if f >= t.n_frames then None
    else if t.free.(f) && Colour.mem colours (colour_of t f) then begin
      t.free.(f) <- false;
      t.n_free <- t.n_free - 1;
      Some f
    end
    else scan (f + 1)
  in
  scan 0

let alloc_many t ?(colours = -1) n =
  Tp_fault.Fault.hit "phys.alloc_many";
  let rec go acc k =
    if k = 0 then Some (List.rev acc)
    else begin
      match alloc t ~colours () with
      | Some f -> go (f :: acc) (k - 1)
      | None ->
          List.iter
            (fun f ->
              t.free.(f) <- true;
              t.n_free <- t.n_free + 1)
            acc;
          None
    end
  in
  go [] n

let alloc_all t =
  Tp_fault.Fault.hit "phys.alloc_many";
  let frames = Array.make t.n_free 0 in
  let k = ref 0 in
  for f = 0 to t.n_frames - 1 do
    if t.free.(f) then begin
      t.free.(f) <- false;
      frames.(!k) <- f;
      incr k
    end
  done;
  t.n_free <- 0;
  frames

let free t f =
  Tp_fault.Fault.hit "phys.free";
  assert (f >= 0 && f < t.n_frames);
  assert (not t.free.(f));
  t.free.(f) <- true;
  t.n_free <- t.n_free + 1

let free_frames t = t.n_free

let free_frames_of_colour t c =
  let count = ref 0 in
  for f = 0 to t.n_frames - 1 do
    if t.free.(f) && colour_of t f = c then incr count
  done;
  !count

let frame_addr f = f * Tp_hw.Defs.page_size
