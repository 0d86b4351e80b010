type severity = Error | Warning | Info

type finding = {
  rule : string;
  severity : severity;
  message : string;
  context : (string * string) list;
}

type report = { subject : string; findings : finding list }

let mk severity ?(context = []) ~rule message = { rule; severity; message; context }
let error ?context ~rule message = mk Error ?context ~rule message
let warning ?context ~rule message = mk Warning ?context ~rule message
let info ?context ~rule message = mk Info ?context ~rule message

let clean r = r.findings = []
let count sev r = List.length (List.filter (fun f -> f.severity = sev) r.findings)

let rules r =
  List.sort_uniq String.compare (List.map (fun f -> f.rule) r.findings)

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let summary r =
  if clean r then "clean"
  else
    let part sev name =
      match count sev r with
      | 0 -> None
      | 1 -> Some ("1 " ^ name)
      | n -> Some (Printf.sprintf "%d %ss" n name)
    in
    String.concat ", "
      (List.filter_map Fun.id
         [ part Error "error"; part Warning "warning"; part Info "info" ])

let pp_finding ppf f =
  Format.fprintf ppf "%-7s %-22s %s" (severity_name f.severity) f.rule f.message

let pp_report ppf r =
  Format.fprintf ppf "%s: %s@." r.subject (summary r);
  List.iter (fun f -> Format.fprintf ppf "  %a@." pp_finding f) r.findings

(* JSON and SARIF: the shapes are fixed, so they print straight to
   strings. *)
module Json = Tp_util.Json

let finding_to_json f =
  let ctx =
    match f.context with
    | [] -> ""
    | kvs ->
        let pairs =
          List.map
            (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
            kvs
        in
        Printf.sprintf ",\"context\":{%s}" (String.concat "," pairs)
  in
  Printf.sprintf "{\"rule\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\"%s}"
    (Json.escape f.rule) (severity_name f.severity) (Json.escape f.message) ctx

let report_to_json r =
  Printf.sprintf "{\"subject\":\"%s\",\"clean\":%b,\"findings\":[%s]}"
    (Json.escape r.subject) (clean r)
    (String.concat "," (List.map finding_to_json r.findings))

let reports_to_json rs =
  Printf.sprintf "[%s]" (String.concat ",\n" (List.map report_to_json rs))

(* SARIF 2.1.0, the minimal shape GitHub code scanning accepts: one
   run, one driver, rule metadata collected from the findings, one
   result per finding.  The analyses are configuration-level, so
   results carry a synthetic location (README.md:1) — code scanning
   requires a location but these findings have no meaningful file/line
   to point at. *)

let severity_sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let reports_to_sarif ?(tool_name = "tpsim") rs =
  let findings =
    List.concat_map (fun r -> List.map (fun f -> (r.subject, f)) r.findings) rs
  in
  let rule_ids =
    List.sort_uniq String.compare (List.map (fun (_, f) -> f.rule) findings)
  in
  let rule_json id =
    Printf.sprintf
      "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}"
      (Json.escape id) (Json.escape id)
  in
  let rule_index id =
    let rec go i = function
      | [] -> 0
      | x :: tl -> if x = id then i else go (i + 1) tl
    in
    go 0 rule_ids
  in
  let result_json (subject, f) =
    let props =
      (("subject", subject) :: f.context)
      |> List.map (fun (k, v) ->
             Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
      |> String.concat ","
    in
    Printf.sprintf
      "{\"ruleId\":\"%s\",\"ruleIndex\":%d,\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"README.md\"},\"region\":{\"startLine\":1}}}],\"properties\":{%s}}"
      (Json.escape f.rule) (rule_index f.rule)
      (severity_sarif_level f.severity)
      (Json.escape (Printf.sprintf "%s: %s" subject f.message))
      props
  in
  Printf.sprintf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"%s\",\"rules\":[%s]}},\"results\":[%s]}]}"
    (Json.escape tool_name)
    (String.concat "," (List.map rule_json rule_ids))
    (String.concat ",\n" (List.map result_json findings))
