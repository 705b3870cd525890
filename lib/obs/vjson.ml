(* Minimal JSON: the one value type every document of the program is
   built as and printed through.  Numbers are printed with %.17g so a
   parse of the output reproduces the same floats — the golden-diff
   engine depends on that round-trip to distinguish "identical" from
   "drifted". *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------- printing ---------- *)

(* Output is always valid UTF-8: a byte sequence that does not decode
   is written as U+FFFD, one replacement per maximal invalid subpart. *)
let escape s =
  let n = String.length s in
  let b = Buffer.create (n + 8) in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if Char.code c < 0x80 then begin
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c);
      incr i
    end
    else begin
      let d = String.get_utf_8_uchar s !i in
      let len = Uchar.utf_decode_length d in
      if Uchar.utf_decode_is_valid d then Buffer.add_substring b s !i len
      else Buffer.add_utf_8_uchar b Uchar.rep;
      i := !i + len
    end
  done;
  Buffer.contents b

(* JSON has no spelling for NaN or the infinities; print them as null
   so the output always parses. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(indent = 0) v =
  let b = Buffer.create 4096 in
  let pad depth = Buffer.add_string b (String.make (indent * depth) ' ') in
  let nl () = if indent > 0 then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Arr vs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i v ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) v)
        vs;
      nl ();
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          go (depth + 1) v)
        kvs;
      nl ();
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  if indent > 0 then Buffer.add_char b '\n';
  Buffer.contents b

(* ---------- parsing ---------- *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 at =
    if at + 4 > n then fail "truncated \\u escape";
    let h = String.sub s at 4 in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.for_all hex h) then fail "bad \\u escape";
    int_of_string ("0x" ^ h)
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
          let hi = hex4 (!pos + 1) in
          pos := !pos + 4;
          let cp =
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* a high surrogate must be followed by an escaped low one *)
              if not (!pos + 2 < n && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u')
              then fail "lone surrogate in \\u escape";
              let lo = hex4 (!pos + 3) in
              if lo < 0xDC00 || lo > 0xDFFF then
                fail "lone surrogate in \\u escape";
              pos := !pos + 6;
              0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if hi >= 0xDC00 && hi <= 0xDFFF then
              fail "lone surrogate in \\u escape"
            else hi
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int cp)
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c when Char.code c < 0x80 ->
        Buffer.add_char b c;
        advance ();
        go ()
      | Some _ ->
        let d = String.get_utf_8_uchar s !pos in
        if not (Uchar.utf_decode_is_valid d) then
          fail "invalid UTF-8 in string";
        let len = Uchar.utf_decode_length d in
        Buffer.add_substring b s !pos len;
        pos := !pos + len;
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* The RFC 8259 grammar: an optional minus, then 0 or a digit run
     not starting with 0, an optional fraction with at least one digit,
     an optional exponent with an optional sign and at least one digit.
     So no leading plus, no bare dot and no leading zeros. *)
  let number () =
    let start = !pos in
    let is_digit = function Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (is_digit (peek ())) then fail "bad number";
      while is_digit (peek ()) do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' ->
      advance ();
      if is_digit (peek ()) then fail "bad number (leading zero)"
    | _ -> digits ());
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else Obj (members [])
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else Arr (elements [])
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
  and members acc =
    skip_ws ();
    let key = string_body () in
    skip_ws ();
    expect ':';
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' ->
      advance ();
      members ((key, v) :: acc)
    | Some '}' ->
      advance ();
      List.rev ((key, v) :: acc)
    | _ -> fail "expected , or } in object"
  and elements acc =
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' ->
      advance ();
      elements (v :: acc)
    | Some ']' ->
      advance ();
      List.rev (v :: acc)
    | _ -> fail "expected , or ] in array"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* ---------- accessors ---------- *)

let mem key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let get key j =
  match mem key j with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing key %S" key))

let str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let num = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let bool = function
  | Bool b -> b
  | _ -> raise (Parse_error "expected a boolean")

let arr = function
  | Arr vs -> vs
  | _ -> raise (Parse_error "expected an array")
