type t =
  | Const of Value.t
  | Local of int
  | Global of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Eq of t * t
  | Le of t * t
  | Lt of t * t
  | Not of t
  | And of t * t
  | Or of t * t
  | If of t * t * t

exception Type_error of string

let int n = Const (Value.Int n)
let bool b = Const (Value.Bool b)
let ge a b = Le (b, a)

let as_int who v =
  match v with
  | Value.Int n -> n
  | Value.Bool _ | Value.Str _ ->
    raise (Type_error (who ^ ": expected an integer"))

let as_bool who v =
  match v with
  | Value.Bool b -> b
  | Value.Int _ | Value.Str _ ->
    raise (Type_error (who ^ ": expected a boolean"))

let rec eval ~locals ~globals e =
  let recur e = eval ~locals ~globals e in
  let arith who op a b =
    Value.Int (op (as_int who (recur a)) (as_int who (recur b)))
  in
  match e with
  | Const v -> v
  | Local k -> locals k
  | Global v -> globals v
  | Neg a -> Value.Int (-as_int "neg" (recur a))
  | Add (a, b) -> arith "add" ( + ) a b
  | Sub (a, b) -> arith "sub" ( - ) a b
  | Mul (a, b) -> arith "mul" ( * ) a b
  | Div (a, b) -> arith "div" (fun x y -> if y = 0 then 0 else x / y) a b
  | Eq (a, b) -> Value.Bool (Value.equal (recur a) (recur b))
  | Le (a, b) -> Value.Bool (as_int "le" (recur a) <= as_int "le" (recur b))
  | Lt (a, b) -> Value.Bool (as_int "lt" (recur a) < as_int "lt" (recur b))
  | Not a -> Value.Bool (not (as_bool "not" (recur a)))
  | And (a, b) -> Value.Bool (as_bool "and" (recur a) && as_bool "and" (recur b))
  | Or (a, b) -> Value.Bool (as_bool "or" (recur a) || as_bool "or" (recur b))
  | If (c, a, b) -> if as_bool "if" (recur c) then recur a else recur b

let eval_closed e =
  let fail _ = raise (Type_error "eval_closed: free variable") in
  eval ~locals:fail ~globals:fail e

let rec fold_vars f acc e =
  match e with
  | Const _ -> acc
  | Local _ | Global _ -> f acc e
  | Neg a | Not a -> fold_vars f acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b)
  | Eq (a, b) | Le (a, b) | Lt (a, b) | And (a, b) | Or (a, b) ->
    fold_vars f (fold_vars f acc a) b
  | If (c, a, b) -> fold_vars f (fold_vars f (fold_vars f acc c) a) b

let locals_used e =
  fold_vars
    (fun acc v -> match v with Local k -> k :: acc | _ -> acc)
    [] e
  |> List.sort_uniq Int.compare

let globals_used e =
  fold_vars
    (fun acc v -> match v with Global g -> g :: acc | _ -> acc)
    [] e
  |> List.sort_uniq String.compare

let max_local e = List.fold_left max (-1) (locals_used e)

let is_identity_of k = function
  | Local k' -> k = k'
  | _ -> false

let depends_on_local k e = List.mem k (locals_used e)

let equal (a : t) (b : t) = a = b

let rec pp ppf e =
  let bin op a b = Format.fprintf ppf "(%a %s %a)" pp a op pp b in
  match e with
  | Const v -> Value.pp ppf v
  | Local k -> Format.fprintf ppf "t%d" (k + 1)
  | Global g -> Format.pp_print_string ppf g
  | Neg a -> Format.fprintf ppf "(-%a)" pp a
  | Add (a, b) -> bin "+" a b
  | Sub (a, b) -> bin "-" a b
  | Mul (a, b) -> bin "*" a b
  | Div (a, b) -> bin "/" a b
  | Eq (a, b) -> bin "=" a b
  | Le (a, b) -> bin "<=" a b
  | Lt (a, b) -> bin "<" a b
  | Not a -> Format.fprintf ppf "(not %a)" pp a
  | And (a, b) -> bin "&&" a b
  | Or (a, b) -> bin "||" a b
  | If (c, a, b) ->
    Format.fprintf ppf "(if %a then %a else %a)" pp c pp a pp b

let to_string e = Format.asprintf "%a" pp e
