open Core

type response = Grant | Delay | Abort

type t = {
  name : string;
  attempt : Names.step_id -> response;
  commit : Names.step_id -> unit;
  on_abort : int -> unit;
  victim : int list -> int option;
  standing : int array;
}

let default_victim = function [] -> None | tx :: _ -> Some tx

let make ~name ~attempt ~commit ?(on_abort = fun _ -> ())
    ?(victim = default_victim) ?(standing = [||]) () =
  { name; attempt; commit; on_abort; victim; standing }
