open Core

type entry = {
  name : string;
  slug : string;
  standard : bool;
  level : string;
  make : ?sink:Obs.Sink.t -> Syntax.t -> Scheduler.t;
}

let slug_of_name name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf c
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | '\'' -> Buffer.add_string buf "-prime"
      | _ ->
        (* collapse runs of separators *)
        let len = Buffer.length buf in
        if len > 0 && Buffer.nth buf (len - 1) <> '-' then
          Buffer.add_char buf '-')
    name;
  let s = Buffer.contents buf in
  (* trim a trailing separator *)
  let l = String.length s in
  if l > 0 && s.[l - 1] = '-' then String.sub s 0 (l - 1) else s

let entry ?(standard = false) ?(level = "ser") name make =
  { name; slug = slug_of_name name; standard; level; make }

let all =
  [
    entry ~standard:true "serial" (fun ?sink:_ syntax ->
        Serial_sched.create ~fmt:(Syntax.format syntax));
    entry ~standard:true "2PL" (fun ?sink syntax ->
        Tpl_sched.create_2pl ?sink ~syntax ());
    entry ~standard:true "2PL'" (fun ?sink syntax ->
        Tpl_sched.create ?sink
          ~policy:(Locking.Two_phase_prime.on_first_var syntax)
          ~syntax ());
    entry ~standard:true "preclaim" (fun ?sink syntax ->
        Tpl_sched.create ?sink ~policy:Locking.Preclaim.policy ~syntax ());
    entry ~standard:true "SGT" (fun ?sink syntax ->
        Sgt.create ?sink ~syntax ());
    entry ~standard:true "TO" (fun ?sink syntax ->
        Timestamp.create ?sink ~syntax ());
    entry ~standard:true "sharded" (fun ?sink syntax ->
        Sharded.create ?sink ~syntax ());
    entry ~standard:true ~level:"causal" "MVCC" (fun ?sink syntax ->
        Mvcc.create ?sink ~syntax ());
    entry ~standard:true ~level:"si" "SI" (fun ?sink syntax ->
        Si.create ?sink ~syntax ());
    entry ~standard:true "SSI" (fun ?sink syntax ->
        Ssi.create ?sink ~syntax ());
    (* Commutativity-aware SGT: on the rw workloads the standard suite
       drives, decision-identical to SGT (the conformance fuzz checks
       its histories at the full ladder up to "ser"); on typed syntax
       it admits the commuting orders rw-SGT delays, verified against
       the extended Herbrand oracle in test/test_semantic.ml. *)
    entry ~standard:true "semantic" (fun ?sink syntax ->
        Semantic.create ?sink ~syntax ());
    entry "SGT-ref" (fun ?sink:_ syntax -> Sgt_ref.create ~syntax);
    (* The sharded engine with cross-shard commits routed through a
       fault-free 2PC service: decision-identical to "sharded" (the
       no-faults pin, enforced by test/test_twopc.ml), but every
       cross-shard commit round flows through the trace. Non-standard so
       the golden measurement tables keep their shape. *)
    entry "sharded-2PC" (fun ?sink syntax ->
        let svc = Twopc.service ?sink ~shards:4 () in
        Sharded.create ?sink ~commit_cross:(Twopc.commit svc) ~syntax ());
  ]

let standard = List.filter (fun e -> e.standard) all
let names = List.map (fun e -> e.slug) all

let find want =
  let w = String.lowercase_ascii want in
  List.find_opt
    (fun e -> String.lowercase_ascii e.name = w || e.slug = w)
    all

let find_exn want =
  match find want with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "unknown scheduler %S (have: %s)" want
         (String.concat ", " names))
