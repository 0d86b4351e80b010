type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !i)) in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while
      !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect c =
    if !i < n && s.[!i] = c then incr i
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !i + l <= n && String.sub s !i l = word then begin
      i := !i + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let hex4 k =
    if k + 3 >= n then fail "truncated \\u escape";
    (hex_digit s.[k] lsl 12)
    lor (hex_digit s.[k + 1] lsl 8)
    lor (hex_digit s.[k + 2] lsl 4)
    lor hex_digit s.[k + 3]
  in
  let is_high cp = cp >= 0xD800 && cp <= 0xDBFF in
  let is_low cp = cp >= 0xDC00 && cp <= 0xDFFF in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let add_cp cp = Buffer.add_utf_8_uchar b (Uchar.of_int cp) in
    let rec go () =
      if !i >= n then fail "unterminated string";
      match s.[!i] with
      | '"' -> incr i
      | '\\' ->
          incr i;
          if !i >= n then fail "unterminated escape";
          (match s.[!i] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              (* [!i] ends on the escape's last hex digit.  A high
                 surrogate must be followed by an escaped low one, and
                 the pair is one 4-byte character; a lone half of a
                 pair is not a character, so it fails closed. *)
              let cp = hex4 (!i + 1) in
              i := !i + 4;
              let lo =
                if is_high cp && !i + 2 < n && s.[!i + 1] = '\\' && s.[!i + 2] = 'u'
                then hex4 (!i + 3)
                else -1
              in
              if is_high cp && is_low lo then begin
                i := !i + 6;
                add_cp (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else if is_high cp || is_low cp then
                fail "unpaired surrogate in \\u escape"
              else add_cp cp
          | c -> fail (Printf.sprintf "unsupported escape '\\%c'" c));
          incr i;
          go ()
      | c when Char.code c < 0x20 -> fail "unescaped control byte in string"
      | c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr i;
        skip_ws ();
        if peek () = Some '}' then begin
          incr i;
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr i;
                members ((k, v) :: acc)
            | Some '}' ->
                incr i;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
    | Some '[' ->
        incr i;
        skip_ws ();
        if peek () = Some ']' then begin
          incr i;
          Arr []
        end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr i;
                elems (v :: acc)
            | Some ']' ->
                incr i;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elems [])
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') ->
        (* RFC 8259 §6: an optional minus, then 0 or digits not
           starting with 0, then an optional fraction and exponent,
           each with at least one digit. *)
        let start = !i in
        let digits () =
          let j = !i in
          while !i < n && match s.[!i] with '0' .. '9' -> true | _ -> false do
            incr i
          done;
          if !i = j then fail "bad number"
        in
        if peek () = Some '-' then incr i;
        (match peek () with
        | Some '0' -> incr i
        | Some '1' .. '9' -> digits ()
        | _ -> fail "bad number");
        if peek () = Some '.' then begin
          incr i;
          digits ()
        end;
        (match peek () with
        | Some ('e' | 'E') ->
            incr i;
            (match peek () with Some ('+' | '-') -> incr i | _ -> ());
            digits ()
        | _ -> ());
        Num (float_of_string (String.sub s start (!i - start)))
    | Some _ -> fail "expected a value"
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then fail "trailing garbage";
  v

let parse_opt s = match parse s with v -> Some v | exception Bad _ -> None

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

(* [Float.of_int max_int] rounds up to 2^62, so the upper bound is
   exclusive; [min_int] = -2^62 is exact. *)
let int_ = function
  | Num f
    when Float.is_integer f
         && f >= Float.of_int min_int
         && f < Float.of_int max_int ->
      Some (int_of_float f)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None
let arr = function Arr l -> Some l | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> float_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kvs)
      ^ "}"
