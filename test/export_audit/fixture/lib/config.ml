let default = 1
let tuned = 2
let run ?(limit = default) () = limit + tuned
