let version = 1

(* Timestamps are IEEE doubles in disguise (driver event counters,
   simulated clocks); 17 significant digits round-trip any of them. *)
let ts_string ts = Printf.sprintf "%.17g" ts

let line_of (ts, ev) = ts_string ts ^ " " ^ Event.to_string ev

let to_string ?(dropped = 0) events =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "# ccopt-events %d\n" version);
  Buffer.add_string b (Printf.sprintf "# dropped %d\n" dropped);
  List.iter
    (fun e ->
      Buffer.add_string b (line_of e);
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

(* ---------- parsing ---------- *)

(* Field values may contain anything but whitespace (the printer
   refuses it); each [k=v] splits on its first '='. *)
let split_field f =
  Option.map
    (fun i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)))
    (String.index_opt f '=')

let event_of_line line =
  match String.split_on_char ' ' line with
  | ts :: name :: fields -> (
    match float_of_string_opt ts with
    | None -> Error (Printf.sprintf "bad timestamp %S" ts)
    | Some ts ->
      let kv = List.filter_map split_field fields in
      Event.of_fields name (fun k -> List.assoc_opt k kv)
      |> Result.map (fun ev -> (ts, ev)))
  | _ -> Error "malformed line"

let parse s =
  let lines = String.split_on_char '\n' s in
  let dropped = ref 0 in
  let dropped_seen = ref false in
  let header_seen = ref false in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc, !dropped)
    | line :: rest ->
      let err msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
      (* A well-formed log ends in a newline, so the split yields a final
         empty element. A non-empty final element is a line the writer
         never finished — treating it as data would silently accept a
         truncated (mid-write, mid-copy) log. *)
      if rest = [] && line <> "" then
        err "missing trailing newline (truncated log?)"
      else if line = "" then go acc (lineno + 1) rest
      else if line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "ccopt-events"; v ] ->
          if int_of_string_opt v = Some version then begin
            header_seen := true;
            go acc (lineno + 1) rest
          end
          else err (Printf.sprintf "unsupported format version %s" v)
        | [ "#"; "dropped"; n ] -> (
          (* one writer, one drop counter: a second header means two logs
             were concatenated or the file was hand-edited — either way
             "last one wins" would silently misreport the drop count *)
          if !dropped_seen then err "duplicate # dropped header"
          else
            match int_of_string_opt n with
            | Some n when n >= 0 ->
              dropped := n;
              dropped_seen := true;
              go acc (lineno + 1) rest
            | _ -> err "bad dropped count")
        | _ -> go acc (lineno + 1) rest (* future metadata: ignore *)
      end
      else if not !header_seen then err "missing # ccopt-events header"
      else
        match event_of_line line with
        | Ok e -> go (e :: acc) (lineno + 1) rest
        | Error msg -> err msg
  in
  go [] 1 lines
