let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)
