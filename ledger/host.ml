(* Host-side plumbing: a monotonic clock, peak memory, and scratch
   directories kept inside the working directory (the benchmark must
   not write outside its checkout). *)

let now () = Monotonic_clock.now ()

(* As close to process start as the ledger can see: set when this
   module initialises, before any of the ledger's own code runs. *)
let started = now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* [time f] is [(f (), host seconds f took)]. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, seconds_since t0)

(* Peak resident set of this process (VmHWM), MiB. *)
let max_rss_mib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
        | None -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let scratch_count = ref 0

(* [with_scratch ?root f] runs [f dir] on a fresh directory under
   [root] (default [.ledger-tmp] in the working directory) and removes
   it afterwards, also when [f] raises; [root] goes too once empty. *)
let with_scratch ?(root = ".ledger-tmp") f =
  incr scratch_count;
  (try Unix.mkdir root 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "%d-%d" (Unix.getpid ()) !scratch_count) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)
