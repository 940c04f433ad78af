type value = Int of int | Str of string

type entry = {
  name : string;
  cat : string;
  ph : char;
  ts : float;
  pid : int;
  tid : int;
  args : (string * value) list;
}

let lifecycle = "lifecycle"
let internal = "scheduler"

let instant ?(cat = lifecycle) ~ts ~tid name args =
  { name; cat; ph = 'i'; ts; pid = 0; tid; args }

let entries events =
  (* The DES can emit slightly out of global order (a decision at t may
     be recorded after an arrival at t' < t was processed); sorting
     stably by timestamp restores track monotonicity without touching
     the order of simultaneous events. *)
  let events = List.stable_sort (fun (a, _) (b, _) -> compare a b) events in
  let max_tx =
    List.fold_left
      (fun m (_, ev) ->
        match Event.tx ev with Some tx -> max m tx | None -> m)
      (-1) events
  in
  let meta =
    { name = "thread_name"; cat = "__metadata"; ph = 'M'; ts = 0.; pid = 0;
      tid = 0; args = [ ("name", Str "scheduler") ] }
    :: List.init (max_tx + 1) (fun tx ->
           { name = "thread_name"; cat = "__metadata"; ph = 'M'; ts = 0.;
             pid = 0; tid = tx + 1;
             args = [ ("name", Str (Printf.sprintf "T%d" (tx + 1))) ] })
  in
  let open_wait = Array.make (max_tx + 1) false in
  let open_exec = Array.make (max_tx + 1) false in
  let last_ts = ref 0. in
  let rev = ref [] in
  let push e = rev := e :: !rev in
  let span ph name ~ts tx args =
    push { name; cat = lifecycle; ph; ts; pid = 0; tid = tx + 1; args }
  in
  let close opened name ~ts tx =
    if opened.(tx) then begin
      opened.(tx) <- false;
      span 'E' name ~ts tx []
    end
  in
  let close_wait = close open_wait "wait" in
  let close_exec = close open_exec "exec" in
  (* the event's own fields, transaction ids 1-based like the tracks *)
  let args ev =
    List.map
      (fun (k, (f : Event.field)) ->
        (k, match f with Tx t -> Int (t + 1) | Int n -> Int n | Str s -> Str s))
      (snd (Event.fields ev))
  in
  List.iter
    (fun (ts, ev) ->
      last_ts := ts;
      match (ev : Event.t) with
      | Submitted { tx; idx } ->
        push (instant ~ts ~tid:(tx + 1) "submit" [ ("step", Int idx) ])
      | Delayed { tx; idx } ->
        if not open_wait.(tx) then begin
          open_wait.(tx) <- true;
          span 'B' "wait" ~ts tx [ ("step", Int idx) ]
        end
      | Granted { tx; idx } ->
        close_wait ~ts tx;
        open_exec.(tx) <- true;
        span 'B' "exec" ~ts tx [ ("step", Int idx) ]
      | Executed { tx; _ } -> close_exec ~ts tx
      | Committed { tx } -> push (instant ~ts ~tid:(tx + 1) "commit" [])
      | Aborted { tx; _ } ->
        close_wait ~ts tx;
        close_exec ~ts tx;
        push
          (instant ~ts ~tid:(tx + 1) "abort" (List.remove_assoc "tx" (args ev)))
      | Restarted { tx } -> push (instant ~ts ~tid:(tx + 1) "restart" [])
      | ev ->
        (* scheduler-internal: the event's own name and fields *)
        let tid = match Event.tx ev with Some tx -> tx + 1 | None -> 0 in
        push (instant ~cat:internal ~ts ~tid (fst (Event.fields ev)) (args ev)))
    events;
  (* a truncated trace (ring overflow) may leave spans open: close them
     so every B has its E *)
  for tx = 0 to max_tx do
    close_exec ~ts:!last_ts tx;
    close_wait ~ts:!last_ts tx
  done;
  meta @ List.rev !rev

(* ---------- JSON rendering ---------- *)

let chrome_of_entries es =
  let arg (k, v) = (k, match v with Int n -> Json.int n | Str s -> Json.Str s) in
  let entry e =
    Json.Line
      (Json.Obj
         ([
            ("name", Json.Str e.name);
            ("cat", Json.Str e.cat);
            ("ph", Json.Str (String.make 1 e.ph));
            ("ts", Json.num "%.3f" e.ts);
            ("pid", Json.int e.pid);
            ("tid", Json.int e.tid);
          ]
         @ if e.args = [] then [] else [ ("args", Json.Obj (List.map arg e.args)) ]))
  in
  Json.pretty
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ("traceEvents", Json.Arr (List.map entry es));
       ])

let chrome events = chrome_of_entries (entries events)
