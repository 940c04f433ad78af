open Core

type request = {
  syntax : Syntax.t;
  schedule : int array option;
  policy : string option;
  certify : string option;
  k : int;
}

let request ?schedule ?policy ?certify ?(k = 2) syntax =
  { syntax; schedule; policy; certify; k }

(* A transaction is a run of steps, one variable letter each: [x] is an
   update of x, [X] a read of x, and a sigil before the letter declares
   the op — [+x] incr, [-x] decr, [>x] enqueue, [^x] max, [!x] blind
   write. "xy,+a+a,Xy" = T1 updates x then y, T2 increments a twice,
   T3 reads x then updates y. *)
let parse_syntax spec =
  (* a variable name is one character, but a blank one could not be
     written to (or read back from) an event log *)
  let blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false in
  if String.exists blank spec then
    invalid_arg "whitespace in --syntax (a variable is one non-blank character)";
  let groups = String.split_on_char ',' spec in
  let parse_tx g =
    if g = "" then invalid_arg "empty transaction in --syntax";
    let steps = ref [] in
    let i = ref 0 in
    let len = String.length g in
    while !i < len do
      let sigil =
        match g.[!i] with
        | '+' -> Some Op.Incr
        | '-' -> Some Op.Decr
        | '>' -> Some Op.Enqueue
        | '^' -> Some Op.Max
        | '!' -> Some Op.Write
        | _ -> None
      in
      (match sigil with
      | Some op ->
        if !i + 1 >= len then
          invalid_arg "dangling op sigil in --syntax (expected a variable)";
        steps :=
          (op, String.make 1 (Char.lowercase_ascii g.[!i + 1])) :: !steps;
        i := !i + 2
      | None ->
        let c = g.[!i] in
        (if c >= 'A' && c <= 'Z' then
           steps := (Op.Read, String.make 1 (Char.lowercase_ascii c)) :: !steps
         else steps := (Op.Update, String.make 1 c) :: !steps);
        incr i)
    done;
    List.rev !steps
  in
  Syntax.of_lists_typed (List.map parse_tx groups)

let parse_interleaving spec =
  Array.init (String.length spec) (fun i ->
      let c = spec.[i] in
      if c < '0' || c > '9' then invalid_arg "--schedule expects digits";
      Char.code c - Char.code '0')

let policy_of_name name syntax =
  match name with
  | "2pl" -> Locking.Two_phase.policy
  | "2pl'" | "2plprime" -> Locking.Two_phase_prime.on_first_var syntax
  | "preclaim" -> Locking.Preclaim.policy
  | "mutex" -> Locking.Mutex_policy.policy
  | name ->
    invalid_arg ("unknown policy " ^ name ^ " (2pl, 2pl', preclaim, mutex)")

let scheduler_of_name syntax name =
  let e = Sched.Registry.find_exn name in
  fun () -> e.Sched.Registry.make syntax

let certifier_level = function
  | "serial" -> Certifier.Format_only
  | _ -> Certifier.Syntactic

let syntax_string syntax =
  let n = Syntax.n_transactions syntax in
  let rows =
    List.init n (fun i ->
        List.init (Syntax.length syntax i) (fun j ->
            Syntax.var syntax (Names.step i j)))
  in
  let flat = List.concat rows in
  let sep =
    if List.for_all (fun v -> String.length v = 1) flat then "" else " "
  in
  String.concat "," (List.map (String.concat sep) rows)

let run req =
  let diags = ref [] in
  let add ds = diags := !diags @ ds in
  (match req.schedule with
  | Some il ->
    let h = Schedule.of_interleaving il in
    add (Anomaly.check req.syntax h)
  | None -> ());
  (match req.policy with
  | Some name ->
    let policy = policy_of_name name req.syntax in
    add (Lock_lint.lint (Lock_lint.of_policy policy req.syntax))
  | None -> ());
  (match req.certify with
  | Some name ->
    add
      (Certifier.certify ~k:req.k ~name
         ~make:(scheduler_of_name req.syntax name)
         ~level:(certifier_level name) req.syntax)
  | None -> ());
  if !diags = [] then
    add
      [
        Report.diagnostic ~rule:"analyze/nothing-to-do"
          ~severity:Report.Info
          "no pass selected: give --schedule for the anomaly detector, \
           --policy for the lock linter, --certify for the scheduler \
           certifier";
      ];
  Report.make ~target:("system " ^ syntax_string req.syntax) !diags
