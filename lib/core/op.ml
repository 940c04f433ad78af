type t = Read | Write | Update | Incr | Decr | Enqueue | Max

let all = [ Read; Write; Update; Incr; Decr; Enqueue; Max ]

let index = function
  | Read -> 0
  | Write -> 1
  | Update -> 2
  | Incr -> 3
  | Decr -> 4
  | Enqueue -> 5
  | Max -> 6

let writes = function
  | Read -> false
  | Write | Update | Incr | Decr | Enqueue | Max -> true

let observes = function
  | Read | Update -> true
  | Write | Incr | Decr | Enqueue | Max -> false

let to_char = function
  | Read -> 'r'
  | Write -> 'w'
  | Update -> 'u'
  | Incr -> '+'
  | Decr -> '-'
  | Enqueue -> 'q'
  | Max -> 'm'

let to_string = function
  | Read -> "read"
  | Write -> "write"
  | Update -> "update"
  | Incr -> "incr"
  | Decr -> "decr"
  | Enqueue -> "enqueue"
  | Max -> "max"
