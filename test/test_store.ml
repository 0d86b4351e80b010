(* The crash-safe content-addressed result store: commit protocol,
   fsck repair of every kind of crash litter, and the fail-at-step-N
   crash-consistency sweep. *)

module Store = Tp_store.Store

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tp-test-store-%d-%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let k i = Store.key ~code_rev:"test" ~parts:[ "entry"; string_of_int i ]
let v i = Printf.sprintf "payload-%d-%s" i (String.make (i * 7) 'x')

let commit_batch store n =
  for i = 0 to n - 1 do
    Store.put store ~key:(k i) (v i)
  done

let check_intact store n =
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "entry %d content" i)
      (Some (v i))
      (Store.find store (k i))
  done

let test_put_find () =
  with_dir (fun dir ->
      let s = Store.open_ ~dir in
      Alcotest.(check int) "empty store" 0 (Store.count s);
      Alcotest.(check (option string)) "miss" None (Store.find s (k 0));
      commit_batch s 3;
      Alcotest.(check int) "count" 3 (Store.count s);
      Alcotest.(check bool) "mem" true (Store.mem s (k 1));
      check_intact s 3;
      Alcotest.(check int) "keys sorted" 3 (List.length (Store.keys s));
      Alcotest.(check (list string))
        "keys are sorted" (Store.keys s)
        (List.sort compare (Store.keys s));
      Store.close s)

let test_put_idempotent () =
  with_dir (fun dir ->
      let s = Store.open_ ~dir in
      Store.put s ~key:(k 0) "first";
      Store.put s ~key:(k 0) "second";
      Alcotest.(check (option string))
        "first commit wins" (Some "first")
        (Store.find s (k 0));
      Alcotest.(check int) "one entry" 1 (Store.count s);
      Store.close s)

let test_bad_key_rejected () =
  with_dir (fun dir ->
      let s = Store.open_ ~dir in
      Alcotest.check_raises "malformed key"
        (Invalid_argument "Tp_store.Store.put: malformed key \"not-a-key\"")
        (fun () -> Store.put s ~key:"not-a-key" "data");
      Store.close s)

let test_reopen () =
  with_dir (fun dir ->
      let s = Store.open_ ~dir in
      commit_batch s 4;
      Store.close s;
      let s = Store.open_ ~dir in
      let r = Store.fsck_report s in
      Alcotest.(check int) "entries" 4 r.Store.f_entries;
      Alcotest.(check int) "no torn" 0 r.Store.f_torn;
      Alcotest.(check int) "no missing" 0 r.Store.f_missing;
      Alcotest.(check int) "no corrupt" 0 r.Store.f_corrupt;
      Alcotest.(check int) "no orphans" 0 r.Store.f_orphans;
      check_intact s 4;
      Store.close s)

let test_key_sensitivity () =
  let base = Store.key ~code_rev:"r1" ~parts:[ "a"; "b" ] in
  Alcotest.(check string)
    "stable" base
    (Store.key ~code_rev:"r1" ~parts:[ "a"; "b" ]);
  Alcotest.(check bool)
    "code rev matters" false
    (base = Store.key ~code_rev:"r2" ~parts:[ "a"; "b" ]);
  Alcotest.(check bool)
    "parts matter" false
    (base = Store.key ~code_rev:"r1" ~parts:[ "a"; "c" ]);
  Alcotest.(check bool)
    "no concatenation ambiguity" false
    (base = Store.key ~code_rev:"r1" ~parts:[ "ab" ])

let append_to_journal dir bytes =
  let fd =
    Unix.openfile (Filename.concat dir "journal")
      [ Unix.O_WRONLY; Unix.O_APPEND ]
      0o644
  in
  let b = Bytes.of_string bytes in
  ignore (Unix.write fd b 0 (Bytes.length b));
  Unix.close fd

let test_torn_tail_dropped () =
  with_dir (fun dir ->
      let s = Store.open_ ~dir in
      commit_batch s 3;
      Store.close s;
      (* A crash mid-append leaves half a line. *)
      append_to_journal dir "C deadbeef";
      let s = Store.open_ ~dir in
      Alcotest.(check int) "torn line seen" 1 (Store.fsck_report s).Store.f_torn;
      Alcotest.(check int) "entries kept" 3 (Store.count s);
      check_intact s 3;
      Store.close s;
      (* The compacting rewrite converges: a second open is clean. *)
      let s = Store.open_ ~dir in
      Alcotest.(check int) "converged" 0 (Store.fsck_report s).Store.f_torn;
      Alcotest.(check int) "entries kept" 3 (Store.count s);
      Store.close s)

let test_corrupt_object_quarantined () =
  with_dir (fun dir ->
      let s = Store.open_ ~dir in
      commit_batch s 3;
      Store.close s;
      let victim = Filename.concat (Filename.concat dir "objects") (k 1) in
      let oc = open_out victim in
      output_string oc "bit-rotted";
      close_out oc;
      let s = Store.open_ ~dir in
      Alcotest.(check int)
        "corrupt dropped" 1
        (Store.fsck_report s).Store.f_corrupt;
      Alcotest.(check int) "two entries left" 2 (Store.count s);
      Alcotest.(check (option string)) "victim gone" None (Store.find s (k 1));
      Alcotest.(check (option string))
        "others intact" (Some (v 0))
        (Store.find s (k 0));
      Store.close s)

let test_orphan_and_staging_reaped () =
  with_dir (fun dir ->
      let s = Store.open_ ~dir in
      commit_batch s 2;
      Store.close s;
      (* Crash window between rename and journal append: an object with
         no journal entry.  And staging litter from a crashed write. *)
      let orphan = Store.key ~code_rev:"test" ~parts:[ "orphan" ] in
      let oc =
        open_out (Filename.concat (Filename.concat dir "objects") orphan)
      in
      output_string oc "never committed";
      close_out oc;
      let oc =
        open_out (Filename.concat (Filename.concat dir "staging") "x.tmp")
      in
      output_string oc "torn stage";
      close_out oc;
      let s = Store.open_ ~dir in
      let r = Store.fsck_report s in
      Alcotest.(check int) "orphan reaped" 1 r.Store.f_orphans;
      Alcotest.(check int) "staging reaped" 1 r.Store.f_staging;
      Alcotest.(check bool) "orphan not present" false (Store.mem s orphan);
      check_intact s 2;
      Store.close s)

(* Property: whatever bytes a crash leaves at the journal tail —
   truncation, garbage, both — completed entries before the damage
   point are either intact or absent, never wrong, and fsck converges
   on the second open. *)
let qcheck_fsck_never_corrupts =
  QCheck.Test.make ~name:"random journal tail damage never corrupts entries"
    ~count:60
    QCheck.(pair (int_bound 200) (small_list (int_bound 255)))
    (fun (cut, junk) ->
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let s = Store.open_ ~dir in
          commit_batch s 4;
          Store.close s;
          (* Truncate the journal [cut] bytes short, then append junk. *)
          let jpath = Filename.concat dir "journal" in
          let len = (Unix.stat jpath).Unix.st_size in
          let keep = Stdlib.max 0 (len - cut) in
          let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd keep;
          Unix.close fd;
          if junk <> [] then
            append_to_journal dir
              (String.init (List.length junk) (fun i ->
                   Char.chr (List.nth junk i)));
          let s = Store.open_ ~dir in
          let survivors = Store.keys s in
          let ok_content =
            List.for_all
              (fun key ->
                match Store.find s key with
                | None -> false
                | Some data ->
                    (* Whatever survived must be byte-exact. *)
                    List.exists
                      (fun i -> k i = key && v i = data)
                      [ 0; 1; 2; 3 ])
              survivors
          in
          Store.close s;
          let s = Store.open_ ~dir in
          let converged =
            Store.keys s = survivors
            && (Store.fsck_report s).Store.f_torn = 0
            && (Store.fsck_report s).Store.f_corrupt = 0
            && (Store.fsck_report s).Store.f_orphans = 0
          in
          Store.close s;
          ok_content && converged))

(* Property: damage anywhere in the journal — one byte overwritten,
   the file cut short, or bytes inserted, at any offset — and open
   still succeeds: every entry whose line lies wholly before the damage
   reads back byte-exact, whatever else survived is byte-exact too
   (never wrong data), fsck quarantines instead of raising, and a
   second open finds nothing left to repair. *)
let qcheck_journal_damage_fails_closed =
  QCheck.Test.make ~name:"journal damage anywhere fails closed"
    ~count:100
    QCheck.(
      quad (int_bound 2) (int_bound 10_000) (int_bound 255)
        (small_list (int_bound 255)))
    (fun (how, at, byte, extra) ->
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let n = 4 in
          let s = Store.open_ ~dir in
          commit_batch s n;
          Store.close s;
          let jpath = Filename.concat dir "journal" in
          let raw = In_channel.with_open_bin jpath In_channel.input_all in
          let len = String.length raw in
          let at = at mod (len + 1) in
          let damaged =
            match how with
            | 0 when at < len ->
                String.mapi (fun i c -> if i = at then Char.chr byte else c) raw
            | 0 | 1 -> String.sub raw 0 at
            | _ ->
                String.sub raw 0 at
                ^ String.init (List.length extra + 1) (fun i ->
                      Char.chr (if i = 0 then byte else List.nth extra (i - 1)))
                ^ String.sub raw at (len - at)
          in
          Out_channel.with_open_bin jpath (fun oc ->
              Out_channel.output_string oc damaged);
          (* Entry [i]'s line ends at the [i + 1]th newline. *)
          let line_end i =
            let rec go pos k =
              let nl = String.index_from raw pos '\n' in
              if k = 0 then nl + 1 else go (nl + 1) (k - 1)
            in
            go 0 i
          in
          let intact = List.filter (fun i -> line_end i <= at) (List.init n Fun.id) in
          let s = Store.open_ ~dir in
          let prefix_ok =
            List.for_all (fun i -> Store.find s (k i) = Some (v i)) intact
          in
          let survivors_ok =
            List.for_all
              (fun key ->
                match Store.find s key with
                | None -> false
                | Some data ->
                    List.exists (fun i -> k i = key && v i = data) (List.init n Fun.id))
              (Store.keys s)
          in
          let survivors = Store.keys s in
          Store.close s;
          let s = Store.open_ ~dir in
          let r = Store.fsck_report s in
          let converged =
            Store.keys s = survivors
            && r.Store.f_torn = 0 && r.Store.f_corrupt = 0
            && r.Store.f_missing = 0 && r.Store.f_orphans = 0
          in
          Store.close s;
          prefix_ok && survivors_ok && converged))

let test_fail_at_each () =
  with_dir (fun dir ->
      let outcomes = Tp_store.Sweep.fail_at_each ~dir in
      Alcotest.(check bool)
        "sweep covers the three persistence points" true
        (List.length outcomes > 3 * Tp_store.Sweep.batch_size);
      List.iter
        (fun (o : Tp_store.Sweep.outcome) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s:%d consistent" o.Tp_store.Sweep.o_point
               o.Tp_store.Sweep.o_occurrence)
            []
            o.Tp_store.Sweep.o_violations;
          Alcotest.(check bool)
            (Printf.sprintf "%s:%d fired" o.Tp_store.Sweep.o_point
               o.Tp_store.Sweep.o_occurrence)
            true o.Tp_store.Sweep.o_fired)
        outcomes)

let suite =
  [
    Alcotest.test_case "put/find round-trip" `Quick test_put_find;
    Alcotest.test_case "put is idempotent" `Quick test_put_idempotent;
    Alcotest.test_case "malformed key rejected" `Quick test_bad_key_rejected;
    Alcotest.test_case "reopen replays the journal" `Quick test_reopen;
    Alcotest.test_case "cache key sensitivity" `Quick test_key_sensitivity;
    Alcotest.test_case "torn journal tail dropped" `Quick
      test_torn_tail_dropped;
    Alcotest.test_case "corrupt object quarantined" `Quick
      test_corrupt_object_quarantined;
    Alcotest.test_case "orphans and staging reaped" `Quick
      test_orphan_and_staging_reaped;
    QCheck_alcotest.to_alcotest qcheck_fsck_never_corrupts;
    QCheck_alcotest.to_alcotest qcheck_journal_damage_fails_closed;
    Alcotest.test_case "fail-at-step-N crash consistency" `Quick
      test_fail_at_each;
  ]
