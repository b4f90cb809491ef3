(* A minimal JSON reader for the server's --metrics-out file.
   Ipds_obs.Json only writes; this parses its output back into the same
   type.  Numbers with a fraction or exponent become [Float], others
   [Int]; \u escapes outside ASCII are not needed for metric names and
   are kept as '?'. *)

module Json = Ipds_obs.Json

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              Buffer.add_char b (if code < 128 then Char.chr code else '?');
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | '\000' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Json.Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Json.Float f
        | None -> fail "bad number")
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Json.Obj [])
        else
          let rec fields acc =
            ws ();
            let k = string () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Json.Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Json.List [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Json.List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Json.String (string ())
    | 't' -> literal "true" (Json.Bool true)
    | 'f' -> literal "false" (Json.Bool false)
    | 'n' -> literal "null" Json.Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function
  | Json.Obj fields -> List.assoc_opt k fields
  | _ -> None

let rec path keys j =
  match keys with
  | [] -> Some j
  | k :: rest -> Option.bind (member k j) (path rest)

let int = function Some (Json.Int i) -> i | _ -> 0
