val once : (unit -> 'a) -> unit -> 'a
(** [once f] runs [f] on first use and returns its result from then
    on.  Safe from several domains: a concurrent first use may run [f]
    twice, but every caller gets the one stored result. *)
