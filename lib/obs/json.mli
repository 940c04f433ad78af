(** The one JSON module: a tree, an escaper, an emitter with a compact
    and an indented layout, and a small parser back to the tree.

    Every machine-readable report ([ccopt analyze|trace|check --json],
    the Chrome trace export, [BENCH_sched.json], [BENCH_check.json]) is
    built as a {!t} and rendered here; the repository has no JSON
    dependency (DESIGN.md §7). Numbers are carried as their literal
    text, so a field formatted with [%.2f] keeps exactly its digits
    and a parsed file re-emits its numbers unchanged. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a number as its literal text, emitted verbatim *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in emission order *)
  | Line of t
      (** layout hint: {!pretty} keeps this value on one line. {!parse}
          never produces it and {!compact} ignores it. *)

val int : int -> t

val num : ('a, unit, string, t) format4 -> 'a
(** [num "%.2f" x] is [Num (Printf.sprintf "%.2f" x)]. *)

val escape : string -> string
(** The body of a JSON string literal: double quote and backslash are
    backslashed, newline and tab written as backslash-n and backslash-t,
    every other control character as a six-character [u00XX] escape;
    all other bytes (UTF-8 included) pass through. *)

val compact : ?spaced:bool -> t -> string
(** One line, no trailing newline: [{"a":1,"b":[2,3]}], or with
    [~spaced:true] [{"a": 1, "b": [2, 3]}]. *)

val pretty : t -> string
(** The indented layout of the bench files: every non-empty array and
    object on its own lines at two spaces per level, except values under
    {!Line}, which render on one line as [{ "a": 1, "b": [2, 3] }].
    Ends with a newline. *)

val parse : string -> t option
(** The whole string as one JSON value (surrounding whitespace allowed);
    [None] on anything malformed: an unterminated string, a bad escape,
    a missing separator, trailing text. Numbers keep their text. *)

val merge : existing:string -> t -> t
(** [merge ~existing fresh] is the object [fresh] followed by every
    top-level member of the parsed [existing] whose key [fresh] lacks —
    so regenerating a report file keeps members other tools or earlier
    opt-in runs put there. [fresh] unchanged unless [existing] parses to
    an object and [fresh] is one. *)
