module Json = Tp_util.Json

let connect ~socket ?(attempts = 20) ?(backoff_s = 0.05) () =
  let rec go n backoff =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if n <= 1 then
          Error
            (Printf.sprintf "cannot connect to %s: %s" socket
               (Unix.error_message e))
        else begin
          Unix.sleepf backoff;
          go (n - 1) (Stdlib.min 1.0 (backoff *. 2.0))
        end
  in
  go (Stdlib.max 1 attempts) backoff_s

let send_line fd line =
  match Protocol.write_line fd line with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error ("connection lost while sending: " ^ Unix.error_message e)

(* Feed each received line to [f] until it returns [Some v] (the final
   event) or the daemon drops the connection. *)
let read_until fd f =
  let result = ref None in
  match
    Protocol.read_lines fd (fun line ->
        result := f line;
        Option.is_none !result)
  with
  | `Stopped -> Ok (Option.get !result)
  | `Closed -> Error "connection closed before the final event"
  | `Reset -> Error "connection reset before the final event"

let with_conn ~socket f =
  match connect ~socket () with
  | Error _ as e -> e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f fd)

let event_of_line line =
  match Json.parse_opt line with
  | None -> ("garbage", Json.Null)
  | Some j ->
      ( Option.value ~default:"garbage"
          (Option.bind (Json.member "event" j) Json.str),
        j )

let request ~socket line ~expect =
  with_conn ~socket (fun fd ->
      match send_line fd line with
      | Error _ as e -> e
      | Ok () ->
          read_until fd (fun l ->
              let ev, j = event_of_line l in
              if ev = expect then Some (Ok j)
              else if ev = "error" then
                Some
                  (Error
                     (Option.value ~default:"unspecified daemon error"
                        (Option.bind (Json.member "message" j) Json.str)))
              else None)
          |> Result.join)

let ping ~socket =
  Result.map (fun _ -> ()) (request ~socket Protocol.ping_line ~expect:"pong")

let status ~socket = request ~socket Protocol.status_line ~expect:"status"

let metrics ~socket =
  Result.bind
    (request ~socket Protocol.metrics_line ~expect:"metrics")
    (fun j ->
      Option.to_result ~none:"metrics event carries no text"
        (Option.bind (Json.member "text" j) Json.str))

let shutdown ~socket =
  Result.map (fun _ -> ())
    (request ~socket Protocol.shutdown_line ~expect:"bye")

let submit ~socket ?(on_progress = ignore) job =
  with_conn ~socket (fun fd ->
      match send_line fd (Protocol.submit_line job) with
      | Error _ as e -> e
      | Ok () ->
          read_until fd (fun l ->
              let ev, j = event_of_line l in
              match ev with
              | "progress" ->
                  (match
                     Option.to_result ~none:"progress event without body"
                       (Json.member "progress" j)
                     |> Fun.flip Result.bind Protocol.progress_of_json
                   with
                  | Ok p -> on_progress p
                  | Error _ -> ());
                  None
              | "result" ->
                  Some
                    (Result.bind
                       (Option.to_result ~none:"result event without body"
                          (Json.member "result" j))
                       Protocol.result_of_json)
              | "error" ->
                  Some
                    (Error
                       (Option.value ~default:"unspecified daemon error"
                          (Option.bind (Json.member "message" j) Json.str)))
              | _ -> None)
          |> Result.join)
