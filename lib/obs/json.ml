type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Line of t

let int i = Num (string_of_int i)
let num fmt = Printf.ksprintf (fun s -> Num s) fmt

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ---------- emitting ---------- *)

let add_string b s = Buffer.add_string b ("\"" ^ escape s ^ "\"")

let items = function
  | Arr xs -> ('[', ']', List.map (fun x -> (None, x)) xs)
  | Obj kvs -> ('{', '}', List.map (fun (k, x) -> (Some k, x)) kvs)
  | _ -> invalid_arg "Json.items"

(* One line: [sep] between items, [colon] after keys, [pad] just inside
   the braces of a non-empty object. *)
let rec inline b ~sep ~colon ~pad v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num s -> Buffer.add_string b s
  | Str s -> add_string b s
  | Line v -> inline b ~sep ~colon ~pad v
  | Arr _ | Obj _ ->
    let op, cl, xs = items v in
    let pad = if xs = [] || op = '[' then "" else pad in
    Buffer.add_char b op;
    Buffer.add_string b pad;
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b sep;
        Option.iter
          (fun k ->
            add_string b k;
            Buffer.add_string b colon)
          k;
        inline b ~sep ~colon ~pad x)
      xs;
    Buffer.add_string b pad;
    Buffer.add_char b cl

let compact ?(spaced = false) v =
  let b = Buffer.create 256 in
  if spaced then inline b ~sep:", " ~colon:": " ~pad:"" v
  else inline b ~sep:"," ~colon:":" ~pad:"" v;
  Buffer.contents b

let pretty v =
  let b = Buffer.create 4096 in
  let rec block depth v =
    match v with
    | Arr (_ :: _) | Obj (_ :: _) ->
      let op, cl, xs = items v in
      let indent = String.make (2 * depth + 2) ' ' in
      Buffer.add_char b op;
      List.iteri
        (fun i (k, x) ->
          Buffer.add_string b (if i > 0 then ",\n" else "\n");
          Buffer.add_string b indent;
          Option.iter
            (fun k ->
              add_string b k;
              Buffer.add_string b ": ")
            k;
          block (depth + 1) x)
        xs;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * depth) ' ');
      Buffer.add_char b cl
    | v -> inline b ~sep:", " ~colon:": " ~pad:" " v
  in
  block 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Malformed

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then raise Malformed;
    incr pos;
    s.[!pos - 1]
  in
  let expect c = if next () <> c then raise Malformed in
  let skip_ws () =
    while !pos < n && String.contains " \t\n\r" s.[!pos] do
      incr pos
    done
  in
  let hex4 () =
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    if h = "" || not (String.for_all hex h) then raise Malformed;
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let u = hex4 () in
          Buffer.add_utf_8_uchar b
            (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep)
        | _ -> raise Malformed);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then raise Malformed
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    Num (String.sub s start (!pos - start))
  in
  let literal word v =
    String.iter expect word;
    v
  in
  (* [item ()] parses one element; the list ends at [close] *)
  let sequence close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match next () with
        | ',' -> go acc
        | c when c = close -> List.rev acc
        | _ -> raise Malformed
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      Obj
        (sequence '}' (fun () ->
             skip_ws ();
             let k = string_lit () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | Some '[' ->
      incr pos;
      Arr (sequence ']' value)
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Malformed
  in
  match value () with
  | v ->
    skip_ws ();
    if !pos = n then Some v else None
  | exception Malformed -> None

let merge ~existing fresh =
  match (parse existing, fresh) with
  | Some (Obj old), Obj kvs ->
    Obj (kvs @ List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) old)
  | _ -> fresh
