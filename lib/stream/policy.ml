type degrade = Roll_forward | Forfeit

let degrade_to_string = function Roll_forward -> "roll-forward" | Forfeit -> "forfeit"

let degrade_of_string = function
  | "roll-forward" | "roll" -> Some Roll_forward
  | "forfeit" -> Some Forfeit
  | _ -> None

type failure =
  | Deadline
  | Io of { op : string; path : string; cause : string }
  | Chaos of string

let transient = function Deadline -> false | Io _ | Chaos _ -> true

let describe = function
  | Deadline -> "deadline exceeded"
  | Io { op; path; cause } -> Printf.sprintf "io failure: %s on %s: %s" op path cause
  | Chaos reason -> "injected transient failure: " ^ reason
