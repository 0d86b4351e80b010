type obs = { o_total : int; o_flush : int; o_pad_wait : int; o_padded : bool }

type image = {
  im_ki : int;
  mutable im_pad : int;
  mutable im_n : int;
  mutable im_padded : int;
  mutable im_overruns : int;
  mutable im_worst_unpadded : int;
  mutable im_worst_total : int;
  mutable im_sum_total : int;
  mutable im_min_slack : int;
  mutable im_samples : obs list;
  mutable im_kept : int;
}

(* Per-switch samples retained per image for the histograms; beyond the
   cap only the running aggregates keep growing. *)
let sample_cap = 65_536

(* Domain-local, like the counter registry: each Tp_par.Pool worker
   profiles the switches of its own simulators.  Profiles are not
   merged at join (tpsim stats runs sequentially); the table exists so
   worker-side recording never races the main domain. *)
let table_key : (int, image) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let table () = Domain.DLS.get table_key

let image_of ki =
  let table = table () in
  match Hashtbl.find_opt table ki with
  | Some im -> im
  | None ->
      let im =
        {
          im_ki = ki;
          im_pad = 0;
          im_n = 0;
          im_padded = 0;
          im_overruns = 0;
          im_worst_unpadded = 0;
          im_worst_total = 0;
          im_sum_total = 0;
          im_min_slack = max_int;
          im_samples = [];
          im_kept = 0;
        }
      in
      Hashtbl.replace table ki im;
      im

let record ~ki ~pad ~padded ~total ~flush ~pad_wait =
  if Ctl.counters_on () then begin
    let im = image_of ki in
    im.im_pad <- pad;
    im.im_n <- im.im_n + 1;
    let unpadded = total - pad_wait in
    if unpadded > im.im_worst_unpadded then im.im_worst_unpadded <- unpadded;
    if total > im.im_worst_total then im.im_worst_total <- total;
    im.im_sum_total <- im.im_sum_total + total;
    if padded then begin
      im.im_padded <- im.im_padded + 1;
      if pad_wait < im.im_min_slack then im.im_min_slack <- pad_wait;
      if pad_wait = 0 then im.im_overruns <- im.im_overruns + 1
    end;
    if im.im_kept < sample_cap then begin
      im.im_samples <-
        { o_total = total; o_flush = flush; o_pad_wait = pad_wait;
          o_padded = padded }
        :: im.im_samples;
      im.im_kept <- im.im_kept + 1
    end
  end

let images () =
  Hashtbl.fold (fun _ im acc -> im :: acc) (table ()) []
  |> List.sort (fun a b -> compare a.im_ki b.im_ki)

let reset () = Hashtbl.reset (table ())

let headroom im =
  if im.im_padded = 0 then None else Some (im.im_pad - im.im_worst_unpadded)

(* Pad-slack quantiles from the log-bucketed histogram: p50 tells us
   where the padding typically sits, p99 how close the tail gets to an
   overrun.  Built on demand from the retained samples. *)
let slack_percentiles im =
  let h = Histogram.create () in
  List.iter
    (fun o -> if o.o_padded then Histogram.record h o.o_pad_wait)
    im.im_samples;
  if Histogram.count h = 0 then None
  else Some (Histogram.percentile h 50.0, Histogram.percentile h 99.0)

(* ASCII distribution of [samples] over [0, hi] cycles: 16 equal bins,
   40 characters for the fullest, each labelled with its centre.
   Samples outside the range clamp into the edge bins. *)
let plot ~hi ppf samples =
  let bins = 16 and width = 40 in
  let hi = float_of_int hi in
  let counts = Array.make bins 0 in
  List.iter
    (fun s ->
      let i = int_of_float (float_of_int s /. hi *. float_of_int bins) in
      let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
      counts.(i) <- counts.(i) + 1)
    samples;
  let m = Array.fold_left Stdlib.max 1 counts in
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "%10.2f | %s %d@."
        ((float_of_int i +. 0.5) *. (hi /. float_of_int bins))
        (String.make (c * width / m) '#')
        c)
    counts

let report ?cycles_to_us ppf () =
  let ims = images () in
  if ims = [] then
    Format.fprintf ppf
      "pad-slack profile: no domain switches recorded (counters off?)@."
  else begin
    let t =
      Tp_util.Table.create ~title:"Pad-slack profile (per kernel image, cycles)"
        ~headers:
          ([ "image"; "switches"; "padded"; "pad"; "worst unpadded";
             "mean total"; "min slack"; "slack p50"; "slack p99"; "headroom";
             "overruns" ]
          @ match cycles_to_us with Some _ -> [ "pad (us)" ] | None -> [])
    in
    List.iter
      (fun im ->
        let mean = if im.im_n = 0 then 0 else im.im_sum_total / im.im_n in
        Tp_util.Table.add_row t
          ([ Printf.sprintf "#%d" im.im_ki;
             Tp_util.Table.cell_i im.im_n;
             Tp_util.Table.cell_i im.im_padded;
             Tp_util.Table.cell_i im.im_pad;
             Tp_util.Table.cell_i im.im_worst_unpadded;
             Tp_util.Table.cell_i mean;
             (if im.im_min_slack = max_int then "-"
              else Tp_util.Table.cell_i im.im_min_slack);
             (match slack_percentiles im with
             | None -> "-"
             | Some (p50, _) -> Tp_util.Table.cell_i p50);
             (match slack_percentiles im with
             | None -> "-"
             | Some (_, p99) -> Tp_util.Table.cell_i p99);
             (match headroom im with
             | None -> "-"
             | Some h -> Tp_util.Table.cell_i h);
             Tp_util.Table.cell_i im.im_overruns ]
          @
          match cycles_to_us with
          | Some f -> [ Tp_util.Table.cell_f (f im.im_pad) ]
          | None -> []))
      ims;
    Format.fprintf ppf "%a@." Tp_util.Table.pp t;
    (* Distribution of what the padding absorbed: a healthy profile has
       every padded switch well away from the 0 bin (the overrun bin). *)
    List.iter
      (fun im ->
        let padded =
          List.filter_map
            (fun o -> if o.o_padded then Some o.o_pad_wait else None)
            im.im_samples
        in
        if padded <> [] && im.im_pad > 0 then begin
          Format.fprintf ppf
            "image #%d pad-slack distribution (pad_wait cycles, %d samples):@.%a@."
            im.im_ki (List.length padded)
            (plot ~hi:(Stdlib.max 1 im.im_pad))
            padded
        end)
      ims;
    (* Unpadded-total distribution is the padding-determinism question
       for images with no pad configured. *)
    List.iter
      (fun im ->
        if im.im_pad = 0 && im.im_samples <> [] then begin
          Format.fprintf ppf
            "image #%d switch-total distribution (no pad, %d samples):@.%a@."
            im.im_ki im.im_kept
            (plot ~hi:(Stdlib.max 1 im.im_worst_total))
            (List.map (fun o -> o.o_total) im.im_samples)
        end)
      ims
  end
