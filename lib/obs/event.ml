type abort_reason = Deadlock | Scheduler_abort

type twopc_payload =
  | Prepare
  | Vote of bool
  | Decision of bool
  | Ack
  | Decision_req

type t =
  | Submitted of { tx : int; idx : int }
  | Delayed of { tx : int; idx : int }
  | Granted of { tx : int; idx : int }
  | Executed of { tx : int; idx : int }
  | Committed of { tx : int }
  | Aborted of { tx : int; reason : abort_reason }
  | Restarted of { tx : int }
  | Edge_added of { src : int; dst : int }
  | Cycle_refused of { tx : int; idx : int }
  | Commute_pass of { tx : int; idx : int; skipped : int }
  | Lock_acquired of { tx : int; lock : string }
  | Lock_released of { tx : int; lock : string }
  | Wound of { victim : int }
  | Ts_refused of { tx : int; idx : int }
  | Shard_routed of { tx : int; idx : int; shard : int }
  | Snapshot_taken of { tx : int; ts : int }
  | Version_read of { tx : int; var : string; value : int }
  | Version_installed of { tx : int; var : string; value : int }
  | Ww_refused of { tx : int; var : string }
  | Pivot_refused of { tx : int; cyclic : bool }
  | Twopc_sent of { tx : int; src : int; dst : int; msg : twopc_payload }
  | Twopc_delivered of { tx : int; src : int; dst : int; msg : twopc_payload }
  | Twopc_decided of { tx : int; node : int; commit : bool }
  | Twopc_timeout of { tx : int; node : int; timer : string }
  | Node_crashed of { tx : int; node : int }
  | Node_recovered of { tx : int; node : int }

let tx = function
  | Submitted { tx; _ }
  | Delayed { tx; _ }
  | Granted { tx; _ }
  | Executed { tx; _ }
  | Committed { tx }
  | Aborted { tx; _ }
  | Restarted { tx }
  | Cycle_refused { tx; _ }
  | Commute_pass { tx; _ }
  | Lock_acquired { tx; _ }
  | Lock_released { tx; _ }
  | Ts_refused { tx; _ }
  | Snapshot_taken { tx; _ }
  | Version_read { tx; _ }
  | Version_installed { tx; _ }
  | Ww_refused { tx; _ }
  | Pivot_refused { tx; _ } -> Some tx
  | Edge_added _ | Wound _ | Shard_routed _ | Twopc_sent _
  | Twopc_delivered _ | Twopc_decided _ | Twopc_timeout _ | Node_crashed _
  | Node_recovered _ -> None

(* Wire names of the enumerated payloads, each way. *)
let enum table =
  ( (fun v -> fst (List.find (fun (_, v') -> v' = v) table)),
    fun s -> List.assoc_opt s table )

let payload_to_string, payload_of_string =
  enum
    [ ("prepare", Prepare); ("vote-yes", Vote true); ("vote-no", Vote false);
      ("commit", Decision true); ("abort", Decision false); ("ack", Ack);
      ("decision-req", Decision_req) ]

let reason_to_string, reason_of_string =
  enum [ ("deadlock", Deadlock); ("scheduler", Scheduler_abort) ]

type field = Tx of int | Int of int | Str of string

(* ---------- the table: one row per constructor, each way ---------- *)

let fields ev =
  let on name tx rest = (name, ("tx", Tx tx) :: rest) in
  let step name tx idx = on name tx [ ("idx", Int idx) ] in
  let bool b = Str (string_of_bool b) in
  let wire src dst m =
    [ ("src", Int src); ("dst", Int dst); ("msg", Str (payload_to_string m)) ]
  in
  match ev with
  | Submitted { tx; idx } -> step "submitted" tx idx
  | Delayed { tx; idx } -> step "delayed" tx idx
  | Granted { tx; idx } -> step "granted" tx idx
  | Executed { tx; idx } -> step "executed" tx idx
  | Committed { tx } -> on "committed" tx []
  | Aborted { tx; reason } ->
    on "aborted" tx [ ("reason", Str (reason_to_string reason)) ]
  | Restarted { tx } -> on "restarted" tx []
  | Edge_added { src; dst } ->
    ("edge-added", [ ("src", Tx src); ("dst", Tx dst) ])
  | Cycle_refused { tx; idx } -> step "cycle-refused" tx idx
  | Commute_pass { tx; idx; skipped } ->
    on "commute-pass" tx [ ("idx", Int idx); ("skipped", Int skipped) ]
  | Lock_acquired { tx; lock } -> on "lock-acquired" tx [ ("lock", Str lock) ]
  | Lock_released { tx; lock } -> on "lock-released" tx [ ("lock", Str lock) ]
  | Wound { victim } -> ("wound", [ ("victim", Tx victim) ])
  | Ts_refused { tx; idx } -> step "ts-refused" tx idx
  | Shard_routed { tx; idx; shard } ->
    on "shard-routed" tx [ ("idx", Int idx); ("shard", Int shard) ]
  | Snapshot_taken { tx; ts } -> on "snapshot-taken" tx [ ("ts", Int ts) ]
  | Version_read { tx; var; value } ->
    on "version-read" tx [ ("var", Str var); ("value", Int value) ]
  | Version_installed { tx; var; value } ->
    on "version-installed" tx [ ("var", Str var); ("value", Int value) ]
  | Ww_refused { tx; var } -> on "ww-refused" tx [ ("var", Str var) ]
  | Pivot_refused { tx; cyclic } ->
    on "pivot-refused" tx [ ("cyclic", bool cyclic) ]
  | Twopc_sent { tx; src; dst; msg } ->
    on "twopc-sent" tx (wire src dst msg)
  | Twopc_delivered { tx; src; dst; msg } ->
    on "twopc-delivered" tx (wire src dst msg)
  | Twopc_decided { tx; node; commit } ->
    on "twopc-decided" tx [ ("node", Int node); ("commit", bool commit) ]
  | Twopc_timeout { tx; node; timer } ->
    on "twopc-timeout" tx [ ("node", Int node); ("timer", Str timer) ]
  | Node_crashed { tx; node } -> on "node-crashed" tx [ ("node", Int node) ]
  | Node_recovered { tx; node } ->
    on "node-recovered" tx [ ("node", Int node) ]

let ( let* ) = Result.bind
let ( let+ ) r f = Result.map f r

let ( and+ ) a b =
  match (a, b) with
  | Ok a, Ok b -> Ok (a, b)
  | (Error _ as e), _ -> e
  | _, (Error _ as e) -> e

let of_fields name get =
  let str k =
    match get k with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %s" k)
  in
  let conv what of_string k =
    let* v = str k in
    match of_string v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %s: bad %s %S" k what v)
  in
  let int = conv "integer" int_of_string_opt in
  let bool = conv "boolean" bool_of_string_opt in
  let msg = conv "payload" payload_of_string "msg" in
  let tx = int "tx" and idx = int "idx" and node = int "node" in
  match name with
  | "submitted" -> let+ tx and+ idx in Submitted { tx; idx }
  | "delayed" -> let+ tx and+ idx in Delayed { tx; idx }
  | "granted" -> let+ tx and+ idx in Granted { tx; idx }
  | "executed" -> let+ tx and+ idx in Executed { tx; idx }
  | "committed" -> let+ tx in Committed { tx }
  | "aborted" ->
    let+ tx and+ reason = conv "abort reason" reason_of_string "reason" in
    Aborted { tx; reason }
  | "restarted" -> let+ tx in Restarted { tx }
  | "edge-added" ->
    let+ src = int "src" and+ dst = int "dst" in Edge_added { src; dst }
  | "cycle-refused" -> let+ tx and+ idx in Cycle_refused { tx; idx }
  | "commute-pass" ->
    let+ tx and+ idx and+ skipped = int "skipped" in
    Commute_pass { tx; idx; skipped }
  | "lock-acquired" ->
    let+ tx and+ lock = str "lock" in Lock_acquired { tx; lock }
  | "lock-released" ->
    let+ tx and+ lock = str "lock" in Lock_released { tx; lock }
  | "wound" -> let+ victim = int "victim" in Wound { victim }
  | "ts-refused" -> let+ tx and+ idx in Ts_refused { tx; idx }
  | "shard-routed" ->
    let+ tx and+ idx and+ shard = int "shard" in
    Shard_routed { tx; idx; shard }
  | "snapshot-taken" -> let+ tx and+ ts = int "ts" in Snapshot_taken { tx; ts }
  | "version-read" ->
    let+ tx and+ var = str "var" and+ value = int "value" in
    Version_read { tx; var; value }
  | "version-installed" ->
    let+ tx and+ var = str "var" and+ value = int "value" in
    Version_installed { tx; var; value }
  | "ww-refused" -> let+ tx and+ var = str "var" in Ww_refused { tx; var }
  | "pivot-refused" ->
    let+ tx and+ cyclic = bool "cyclic" in Pivot_refused { tx; cyclic }
  | "twopc-sent" ->
    let+ tx and+ src = int "src" and+ dst = int "dst" and+ msg in
    Twopc_sent { tx; src; dst; msg }
  | "twopc-delivered" ->
    let+ tx and+ src = int "src" and+ dst = int "dst" and+ msg in
    Twopc_delivered { tx; src; dst; msg }
  | "twopc-decided" ->
    let+ tx and+ node and+ commit = bool "commit" in
    Twopc_decided { tx; node; commit }
  | "twopc-timeout" ->
    let+ tx and+ node and+ timer = str "timer" in
    Twopc_timeout { tx; node; timer }
  | "node-crashed" -> let+ tx and+ node in Node_crashed { tx; node }
  | "node-recovered" -> let+ tx and+ node in Node_recovered { tx; node }
  | name -> Error (Printf.sprintf "unknown event %S" name)

(* ---------- everything else reads the table ---------- *)

let field_string = function Tx i | Int i -> string_of_int i | Str s -> s

let map_tx f ev =
  let name, fs = fields ev in
  let fs =
    List.map (fun (k, v) -> (k, match v with Tx t -> Tx (f t) | v -> v)) fs
  in
  let get k = Option.map field_string (List.assoc_opt k fs) in
  match of_fields name get with
  | Ok ev -> ev
  | Error msg -> invalid_arg ("Event.map_tx: " ^ msg)

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let pp ppf ev =
  let name, fs = fields ev in
  List.iter
    (function
      | k, Str s when String.exists is_space s ->
        invalid_arg
          (Printf.sprintf "Event.pp: %s field %s=%S has whitespace" name k s)
      | _ -> ())
    fs;
  Format.pp_print_string ppf name;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k (field_string v)) fs

let to_string ev = Format.asprintf "%a" pp ev
